package yield

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/order"
)

// randomOracleSystem builds a random fault tree over c components: a DAG of
// and/or/not/xor/atleast gates whose operands are drawn from the
// already-built nodes, with random (positive, P_L ≤ 1) lethalities.
func randomOracleSystem(rng *rand.Rand, c int) *System {
	n := logic.New()
	pool := make([]logic.GateID, 0, 32)
	for i := 0; i < c; i++ {
		pool = append(pool, n.Input(fmt.Sprintf("x%d", i)))
	}
	if rng.Intn(8) == 0 {
		pool = append(pool, n.Const(rng.Intn(2) == 0))
	}
	gates := 1 + rng.Intn(12)
	for g := 0; g < gates; g++ {
		pick := func() logic.GateID { return pool[rng.Intn(len(pool))] }
		var id logic.GateID
		switch rng.Intn(6) {
		case 0:
			id = n.Not(pick())
		case 1:
			id = n.And(pick(), pick())
		case 2:
			id = n.Or(pick(), pick())
		case 3:
			id = n.Xor(pick(), pick())
		case 4:
			id = n.And(pick(), pick(), pick())
		default:
			id = n.AtLeast(2, pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	// Root the output in a disjunction of late nodes so it usually
	// depends on a good fraction of the inputs.
	out := n.Or(pool[len(pool)-1], pool[rng.Intn(len(pool))])
	n.SetOutput(out)

	sys := &System{Name: "random", FaultTree: n}
	budget := 0.2 + 0.75*rng.Float64() // P_L ∈ (0.2, 0.95)
	raw := make([]float64, c)
	sum := 0.0
	for i := range raw {
		raw[i] = 0.05 + rng.Float64()
		sum += raw[i]
	}
	for i := 0; i < c; i++ {
		sys.Components = append(sys.Components, Component{
			Name: fmt.Sprintf("x%d", i),
			P:    budget * raw[i] / sum,
		})
	}
	return sys
}

// randomDistribution draws a defect model from every family the
// package ships, parameterized to keep truncation points small.
func randomDistribution(rng *rand.Rand) defects.Distribution {
	switch rng.Intn(4) {
	case 0:
		d, _ := defects.NewNegativeBinomial(0.25+2*rng.Float64(), 0.25+3*rng.Float64())
		return d
	case 1:
		d, _ := defects.NewPoisson(0.25 + 2*rng.Float64())
		return d
	case 2:
		return defects.Geometric{Lambda: 0.25 + 1.5*rng.Float64()}
	default:
		return defects.Deterministic{N: 1 + rng.Intn(4)}
	}
}

// oracleCase is one randomized system of the oracle differential.
type oracleCase struct {
	name string
	sys  *System
	opts Options
}

// differentialCases draws the randomized fault trees of the oracle
// differential: 50 (12 under -short) systems with defect families,
// orderings and ε drawn from one fixed seed.
func differentialCases() []oracleCase {
	rng := rand.New(rand.NewSource(20030622))
	mvKinds := []order.MVKind{order.MVWeight, order.MVWV, order.MVVW, order.MVTopology, order.MVH4}
	trees := 50
	if testing.Short() {
		trees = 12
	}
	cases := make([]oracleCase, trees)
	for i := range cases {
		c := 3 + rng.Intn(4) // 3..6 components
		sys := randomOracleSystem(rng, c)
		dist := randomDistribution(rng)
		eps := []float64{5e-2, 1e-2, 2e-3}[rng.Intn(3)]
		opts := Options{
			Defects: dist,
			Epsilon: eps,
			MVOrder: mvKinds[rng.Intn(len(mvKinds))],
		}
		name := fmt.Sprintf("tree %d (C=%d, %v, ε=%g, mv=%v)", i, c, dist, eps, opts.MVOrder)
		cases[i] = oracleCase{name: name, sys: sys, opts: opts}
	}
	return cases
}

// TestOracleDifferential compares the full ROMDD pipeline against the
// exact-enumeration oracle on randomized fault trees across defect
// families, orderings and ε. The oracle shares only the model
// preparation and the G synthesis with the pipeline (and exhaustively
// cross-checks the synthesis against the raw fault tree on every
// assignment), so agreement here certifies the ordering, compilation,
// conversion and traversal stages end to end.
func TestOracleDifferential(t *testing.T) {
	for i, tc := range differentialCases() {
		name, sys, opts := tc.name, tc.sys, tc.opts
		exact, err := ExactYield(sys, opts)
		if err != nil {
			t.Fatalf("%s: ExactYield: %v", name, err)
		}
		got, err := Evaluate(sys, opts)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", name, err)
		}
		if got.M != exact.M {
			t.Fatalf("%s: pipeline M=%d, oracle M=%d", name, got.M, exact.M)
		}
		if diff := math.Abs(got.Yield - exact.Yield); diff > 1e-12 {
			t.Errorf("%s: pipeline yield %.17g, oracle %.17g (diff %.3g)", name, got.Yield, exact.Yield, diff)
		}
		if got.Yield < 0 || got.Yield > 1 {
			t.Errorf("%s: yield %v outside [0,1]", name, got.Yield)
		}
		// Every fourth tree, check the DP over F's own ROBDD too.
		if i%4 == 0 {
			bf, err := BruteForce(sys, opts)
			if err != nil {
				t.Fatalf("%s: BruteForce: %v", name, err)
			}
			if diff := math.Abs(bf.Yield - exact.Yield); diff > 1e-11 {
				t.Errorf("%s: DP yield %.17g, oracle %.17g (diff %.3g)", name, bf.Yield, exact.Yield, diff)
			}
		}
	}
}

// TestOneAnswerEveryOrdering runs the differential's trees under every
// MV ordering: Evaluate, NewReevaluator, Reevaluator.Yield at the
// build's own model and the direct-MDD route must return the same
// yield bits, wherever W sits in the order.
func TestOneAnswerEveryOrdering(t *testing.T) {
	for _, tc := range differentialCases() {
		ps := make([]float64, len(tc.sys.Components))
		for j, comp := range tc.sys.Components {
			ps[j] = comp.P
		}
		for _, mv := range allMVKinds {
			opts := tc.opts
			opts.MVOrder = mv
			name := fmt.Sprintf("%s under %v", tc.name, mv)
			ev, err := Evaluate(tc.sys, opts)
			if err != nil {
				t.Fatalf("%s: Evaluate: %v", name, err)
			}
			r, err := NewReevaluator(tc.sys, opts)
			if err != nil {
				t.Fatalf("%s: NewReevaluator: %v", name, err)
			}
			ry, _, err := r.Yield(ps, opts.Defects)
			if err != nil {
				t.Fatalf("%s: Reevaluator.Yield: %v", name, err)
			}
			direct, err := EvaluateDirectMDD(tc.sys, opts)
			if err != nil {
				t.Fatalf("%s: EvaluateDirectMDD: %v", name, err)
			}
			if ev.Yield != r.Result.Yield || ry != ev.Yield || direct.Yield != ev.Yield {
				t.Errorf("%s: Evaluate %.17g, NewReevaluator %.17g, Reevaluator.Yield %.17g, direct MDD %.17g",
					name, ev.Yield, r.Result.Yield, ry, direct.Yield)
			}
		}
	}
}

// TestOracleMatchesBruteForceTMR pins the oracle on the documented TMR
// example where the closed form is easy to trust.
func TestOracleMatchesBruteForceTMR(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	for _, eps := range []float64{5e-2, 5e-3, 1e-4} {
		opts := Options{Defects: dist, Epsilon: eps}
		exact, err := ExactYield(sys, opts)
		if err != nil {
			t.Fatalf("ExactYield(ε=%g): %v", eps, err)
		}
		bf, err := BruteForce(sys, opts)
		if err != nil {
			t.Fatalf("BruteForce(ε=%g): %v", eps, err)
		}
		if diff := math.Abs(exact.Yield - bf.Yield); diff > 1e-12 {
			t.Errorf("ε=%g: oracle %.17g, DP %.17g (diff %.3g)", eps, exact.Yield, bf.Yield, diff)
		}
		if exact.ErrorBound > eps {
			t.Errorf("ε=%g: error bound %v exceeds ε", eps, exact.ErrorBound)
		}
	}
}

// TestOracleGuards exercises the component and assignment budgets.
func TestOracleGuards(t *testing.T) {
	big := &System{Name: "big", FaultTree: logic.New()}
	var ins []logic.GateID
	for i := 0; i < 13; i++ {
		ins = append(ins, big.FaultTree.Input(fmt.Sprintf("x%d", i)))
		big.Components = append(big.Components, Component{Name: fmt.Sprintf("x%d", i), P: 0.05})
	}
	big.FaultTree.SetOutput(big.FaultTree.Or(ins...))
	if _, err := ExactYield(big, Options{Defects: defects.Poisson{Lambda: 1}}); err == nil {
		t.Error("expected component-count guard to fire for C=13")
	}

	sys := tmrSystem(0.2, 0.15, 0.15)
	// ε small enough to force an M whose 3^M enumeration exceeds 2^24.
	if _, err := ExactYield(sys, Options{Defects: defects.Deterministic{N: 60}, Epsilon: 1e-6}); err == nil {
		t.Error("expected assignment-budget guard to fire")
	}
}
