package store

import (
	"fmt"
	"math/rand"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/yield"
)

// buildSnapshot compiles a model and returns its keyed snapshot, the
// live Reevaluator it came from, and the system (for per-request
// inputs).
func buildSnapshot(t *testing.T, sys *yield.System, opts yield.Options) (*yield.Snapshot, *yield.Reevaluator) {
	t.Helper()
	key, _, err := yield.ModelKey(sys, opts)
	if err != nil {
		t.Fatalf("ModelKey: %v", err)
	}
	re, err := yield.NewReevaluator(sys, opts)
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	snap := re.Snapshot()
	snap.ModelKey = key
	return snap, re
}

// benchSnapshot compiles a named benchmark under the reproduction
// defaults.
func benchSnapshot(t *testing.T, name string) (*yield.Snapshot, *yield.Reevaluator, *yield.System) {
	t.Helper()
	sys, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatalf("NewNegativeBinomial: %v", err)
	}
	snap, re := buildSnapshot(t, sys, yield.Options{Defects: dist, Epsilon: 2e-3})
	return snap, re, sys
}

// randomSystem builds a small random monotone fault tree (the same
// family the yield oracle battery uses) so the round-trip property
// test covers diverse diagram shapes, not just the benchmarks.
func randomSystem(rng *rand.Rand) *yield.System {
	c := 3 + rng.Intn(4)
	f := logic.New()
	pool := make([]logic.GateID, 0, 32)
	comps := make([]yield.Component, c)
	total := 0.0
	for i := 0; i < c; i++ {
		pool = append(pool, f.Input(fmt.Sprintf("x%d", i+1)))
		comps[i].Name = fmt.Sprintf("x%d", i+1)
		comps[i].P = 0.02 + 0.1*rng.Float64()
		total += comps[i].P
	}
	target := 0.2 + 0.6*rng.Float64()
	for i := range comps {
		comps[i].P *= target / total
	}
	for i := 0; i < 5+rng.Intn(8); i++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			pool = append(pool, f.And(a, b))
		} else {
			pool = append(pool, f.Or(a, b))
		}
	}
	f.SetOutput(pool[len(pool)-1])
	return &yield.System{Name: "random", Components: comps, FaultTree: f}
}

// lethalities extracts the per-component P_i vector.
func lethalities(sys *yield.System) []float64 {
	ps := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		ps[i] = c.P
	}
	return ps
}
