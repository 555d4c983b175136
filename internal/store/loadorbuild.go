package store

import (
	"fmt"

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
			if re, uerr := Unpack(key, data); uerr == nil {
				return re, true, nil
			}
			st.Evict(key)
		}
	}
	re, err = yield.NewReevaluator(sys, opts)
	if err != nil {
		return nil, false, err
	}
	if st != nil {
		if data, perr := Pack(key, re); perr == nil {
			st.Put(key, data)
		}
	}
	return re, false, nil
}

// Pack encodes a compiled model for storage under key: it snapshots
// re, stamps the snapshot with key and encodes it.
func Pack(key string, re *yield.Reevaluator) ([]byte, error) {
	snap := re.Snapshot()
	snap.ModelKey = key
	return Encode(snap)
}

// Unpack restores the compiled model stored under key. Besides every
// failure of Decode, it rejects a model whose own key is not key: a
// file renamed onto the wrong address would otherwise serve the wrong
// model forever.
func Unpack(key string, data []byte) (*yield.Reevaluator, error) {
	snap, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if snap.ModelKey != key {
		return nil, fmt.Errorf("store: holds model %.12s… (system %q), want model %.12s…", snap.ModelKey, snap.SystemName, key)
	}
	return yield.RestoreReevaluator(snap)
}
