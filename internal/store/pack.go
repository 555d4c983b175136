package store

import (
	"fmt"

	"socyield/internal/yield"
)

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
