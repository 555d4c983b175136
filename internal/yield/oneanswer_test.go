package yield_test

import (
	"fmt"
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
