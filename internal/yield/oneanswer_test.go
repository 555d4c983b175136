package yield_test

import (
	"fmt"
	"math/rand"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// TestOneAnswerBenchmarkSystems builds MS2, ESEN4x1, ESEN4x2 and MS4
// under every MV ordering at NB(λ, α=2), ε = 5e-3, for λ = 1 and 2.
// Evaluate, NewReevaluator, Reevaluator.Yield at the build's own model
// and the direct-MDD route must return the same yield bits, wherever W
// sits in the order.
//
// ESEN4x2 and MS4 under vrw at λ = 2 are left out: their builds peak
// at up to 13.8M live BDD nodes (about 1.2 GB) and take tens of
// seconds each. Both systems are checked under vrw at λ = 1.
func TestOneAnswerBenchmarkSystems(t *testing.T) {
	mvKinds := []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVTopology, order.MVWeight, order.MVH4}
	for _, lambda := range []float64{1, 2} {
		dist, err := defects.NewNegativeBinomial(lambda, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"MS2", "ESEN4x1", "ESEN4x2", "MS4"} {
			sys, err := benchmarks.ByName(bench)
			if err != nil {
				t.Fatalf("%s: %v", bench, err)
			}
			ps := make([]float64, len(sys.Components))
			for j, comp := range sys.Components {
				ps[j] = comp.P
			}
			for _, mv := range mvKinds {
				if lambda == 2 && mv == order.MVVRW && (bench == "ESEN4x2" || bench == "MS4") {
					continue
				}
				name := fmt.Sprintf("%s at λ=%g under %v", bench, lambda, mv)
				opts := yield.Options{Defects: dist, Epsilon: 5e-3, MVOrder: mv}
				ev, err := yield.Evaluate(sys, opts)
				if err != nil {
					t.Fatalf("%s: Evaluate: %v", name, err)
				}
				r, err := yield.NewReevaluator(sys, opts)
				if err != nil {
					t.Fatalf("%s: NewReevaluator: %v", name, err)
				}
				ry, _, err := r.Yield(ps, dist)
				if err != nil {
					t.Fatalf("%s: Reevaluator.Yield: %v", name, err)
				}
				d, err := yield.EvaluateDirectMDD(sys, opts)
				if err != nil {
					t.Fatalf("%s: EvaluateDirectMDD: %v", name, err)
				}
				if ev.Yield != r.Result.Yield || ry != ev.Yield || d.Yield != ev.Yield {
					t.Errorf("%s: Evaluate %.17g, NewReevaluator %.17g, Reevaluator.Yield %.17g, direct MDD %.17g",
						name, ev.Yield, r.Result.Yield, ry, d.Yield)
				}
				if d.ROMDDSize != ev.ROMDDSize {
					t.Errorf("%s: direct ROMDD %d nodes, converted %d", name, d.ROMDDSize, ev.ROMDDSize)
				}
			}
		}
	}
}

// TestConversionLayoutBenchmarkSystems checks the conversion layout
// (see CheckConversionLayout) on MS2, ESEN4x1 and ESEN4x2 at M = 3
// under all 17 compatible MV×bit orderings.
func TestConversionLayoutBenchmarkSystems(t *testing.T) {
	dist, err := defects.NewNegativeBinomial(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"MS2", "ESEN4x1", "ESEN4x2"} {
		sys, err := benchmarks.ByName(bench)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		eps := yield.EpsilonForM(t, sys, dist, 3)
		for _, mv := range yield.AllMVKinds {
			for _, bits := range yield.AllBitKinds {
				if !order.Compatible(mv, bits) {
					continue
				}
				opts := yield.Options{Defects: dist, Epsilon: eps, MVOrder: mv, BitOrder: bits}
				yield.CheckConversionLayout(t, fmt.Sprintf("%s under %v/%v", bench, mv, bits), sys, opts)
			}
		}
	}
}

// TestCompactMatchesFlatLayoutBenchmarks checks the ROMDDs of MS2, MS4
// and ESEN4x1/4x2/4x4, built under the reproduction defaults, against
// the flat one-child-per-value layout and its passes.
func TestCompactMatchesFlatLayoutBenchmarks(t *testing.T) {
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, bench := range []string{"MS2", "MS4", "ESEN4x1", "ESEN4x2", "ESEN4x4"} {
		sys, err := benchmarks.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		re, err := yield.NewReevaluator(sys, yield.Options{Defects: dist, Epsilon: 2e-3})
		if err != nil {
			t.Fatal(err)
		}
		snap := re.Snapshot()
		dm, droot, err := yield.BuildDirectMDD(sys.FaultTree, snap.M, len(sys.Components), snap.GroupSeq, 0)
		if err != nil {
			t.Fatal(err)
		}
		yield.CheckCompactPasses(t, bench, snap.Frozen, yield.FlatFreeze(dm, droot), rng)
	}
}
