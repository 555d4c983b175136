package store

import (
	"errors"

	"socyield/internal/yield"
)

// LoadOrBuild returns a Reevaluator for the model (sys, opts)
// describe, serving it from the persistent store when possible:
//
//   - store hit → decode + restore, no compile (fromStore = true);
//   - miss, corruption or revision skew → compile (the build resolves
//     the model key's M by construction), then write through.
//
// A nil store just compiles — callers can thread an optional store
// without branching. Corrupt entries are evicted so the next call
// takes the clean path; store write failures are swallowed (the caller
// has its model, persistence is an optimization). This is the
// batch-side counterpart of the yieldd cache's second tier and uses
// the same on-disk artifacts.
func LoadOrBuild(st *Store, sys *yield.System, opts yield.Options) (re *yield.Reevaluator, fromStore bool, err error) {
	key, _, err := yield.ModelKey(sys, opts)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		if data, gerr := st.Get(key); gerr == nil {
			snap, derr := Decode(data)
			if derr == nil && snap.ModelKey != key {
				derr = errors.New("store: stored model key does not match its address")
			}
			if derr == nil {
				if re, rerr := yield.RestoreReevaluator(snap); rerr == nil {
					return re, true, nil
				}
			}
			st.Evict(key)
		}
	}
	re, err = yield.NewReevaluator(sys, opts)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		snap := re.Snapshot()
		snap.ModelKey = key
		if data, eerr := Encode(snap); eerr == nil {
			st.Put(key, data)
		}
	}
	return re, false, nil
}
