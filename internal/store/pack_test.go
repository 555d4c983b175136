package store

import (
	"math/rand"
	"strings"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/yield"
)

// TestUnpackChecksKeys round-trips a compiled model through Pack, the
// store and Unpack under its key, with the same yield bits, and checks
// that Unpack rejects another model's bytes under that key.
func TestUnpackChecksKeys(t *testing.T) {
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
	built, err := yield.NewReevaluator(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := openStore(t, 0)
	data, err := Pack(key, built)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if data, err = st.Get(key); err != nil {
		t.Fatal(err)
	}
	loaded, err := Unpack(key, data)
	if err != nil {
		t.Fatalf("Unpack under the model's own key: %v", err)
	}
	ps := lethalities(sys)
	want, _, err := built.Yield(ps, dist)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := loaded.Yield(ps, dist); err != nil || got != want {
		t.Errorf("stored model yields %v (err %v), built model %v", got, err, want)
	}

	// The other system's model, packed under its own key.
	otherKey, _, err := yield.ModelKey(other, opts)
	if err != nil {
		t.Fatal(err)
	}
	otherRe, err := yield.NewReevaluator(other, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err = Pack(otherKey, otherRe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(key, data); err == nil || !strings.Contains(err.Error(), "holds model") {
		t.Errorf("Unpack under the wrong key: err = %v, want a key mismatch", err)
	}
	if _, err := Unpack(otherKey, data); err != nil {
		t.Errorf("Unpack under the model's own key: %v", err)
	}
}
