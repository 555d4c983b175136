package store

import (
	"math/rand"
	"strings"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/yield"
)

// TestLoadOrBuildChecksKeys drives the store's batch path through a
// miss, a hit and an entry that holds another model: LoadOrBuild must
// compile, then serve the stored model with the same yield bits, then
// evict the misaddressed entry and replace it with a rebuilt one.
func TestLoadOrBuildChecksKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys, other := randomSystem(rng), randomSystem(rng)
	dist, err := defects.NewNegativeBinomial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := yield.Options{Defects: dist, Epsilon: 1e-4}
	key, _, err := yield.ModelKey(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := openStore(t, 0)

	built, fromStore, err := LoadOrBuild(st, sys, opts)
	if err != nil || fromStore {
		t.Fatalf("first LoadOrBuild: fromStore=%v err=%v, want a compile", fromStore, err)
	}
	loaded, fromStore, err := LoadOrBuild(st, sys, opts)
	if err != nil || !fromStore {
		t.Fatalf("second LoadOrBuild: fromStore=%v err=%v, want a store hit", fromStore, err)
	}
	ps := lethalities(sys)
	want, _, err := built.Yield(ps, dist)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := loaded.Yield(ps, dist); err != nil || got != want {
		t.Errorf("stored model yields %v (err %v), built model %v", got, err, want)
	}

	// Put the other system's model under this key.
	otherKey, _, err := yield.ModelKey(other, opts)
	if err != nil {
		t.Fatal(err)
	}
	otherRe, err := yield.NewReevaluator(other, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Pack(otherKey, otherRe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(key, data); err == nil || !strings.Contains(err.Error(), "holds model") {
		t.Errorf("Unpack under the wrong key: err = %v, want a key mismatch", err)
	}
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if _, fromStore, err := LoadOrBuild(st, sys, opts); err != nil || fromStore {
		t.Fatalf("LoadOrBuild over a misaddressed entry: fromStore=%v err=%v, want a rebuild", fromStore, err)
	}
	data, err = st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(key, data); err != nil {
		t.Errorf("the rebuilt entry does not unpack under its key: %v", err)
	}
}
