package yield

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/order"
)

// tmrSystem returns a triple-modular-redundant block: 3 components,
// system fails when at least 2 have failed.
func tmrSystem(p1, p2, p3 float64) *System {
	f := logic.New()
	a, b, c := f.Input("m1"), f.Input("m2"), f.Input("m3")
	f.SetOutput(f.Or(f.And(a, b), f.And(a, c), f.And(b, c)))
	return &System{
		Name: "tmr",
		Components: []Component{
			{Name: "m1", P: p1}, {Name: "m2", P: p2}, {Name: "m3", P: p3},
		},
		FaultTree: f,
	}
}

func seriesSystem(ps ...float64) *System {
	f := logic.New()
	ids := make([]logic.GateID, len(ps))
	comps := make([]Component, len(ps))
	for i, p := range ps {
		ids[i] = f.Input(fmt.Sprintf("c%d", i+1))
		comps[i] = Component{Name: fmt.Sprintf("c%d", i+1), P: p}
	}
	f.SetOutput(f.Or(ids...))
	return &System{Name: "series", Components: comps, FaultTree: f}
}

func parallelSystem(ps ...float64) *System {
	f := logic.New()
	ids := make([]logic.GateID, len(ps))
	comps := make([]Component, len(ps))
	for i, p := range ps {
		ids[i] = f.Input(fmt.Sprintf("c%d", i+1))
		comps[i] = Component{Name: fmt.Sprintf("c%d", i+1), P: p}
	}
	f.SetOutput(f.And(ids...))
	return &System{Name: "parallel", Components: comps, FaultTree: f}
}

func nb(lambda, alpha float64) defects.Distribution {
	d, err := defects.NewNegativeBinomial(lambda, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

func TestSeriesSystemClosedForm(t *testing.T) {
	// In a series system any lethal defect is fatal: Y_M = Q'_0.
	sys := seriesSystem(0.2, 0.2, 0.1)
	dist := nb(2, 2)
	res, err := Evaluate(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	lethal, _ := defects.Thin(dist, 0.5)
	want := lethal.PMF(0)
	if math.Abs(res.Yield-want) > 1e-12 {
		t.Errorf("series yield = %v, want Q'_0 = %v", res.Yield, want)
	}
	if res.PL != 0.5 {
		t.Errorf("PL = %v, want 0.5", res.PL)
	}
	if math.Abs(res.LambdaPrime-1) > 1e-12 {
		t.Errorf("λ' = %v, want 1", res.LambdaPrime)
	}
	if res.ErrorBound <= 0 || res.ErrorBound > 5e-3 {
		t.Errorf("ErrorBound = %v", res.ErrorBound)
	}
	if res.M != 6 {
		t.Errorf("M = %d, want 6 (calibration)", res.M)
	}
}

func TestParallelSystemHandComputed(t *testing.T) {
	// Exactly 2 lethal defects on a 2-component parallel system with
	// P'_1 = P'_2 = 1/2: the system fails iff the defects hit both
	// components, so Y = 1/2.
	sys := parallelSystem(0.5, 0.5)
	res, err := Evaluate(sys, Options{Defects: defects.Deterministic{N: 2}, Epsilon: 1e-9})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(res.Yield-0.5) > 1e-12 {
		t.Errorf("yield = %v, want 0.5", res.Yield)
	}
	if res.ErrorBound > 1e-9 {
		t.Errorf("ErrorBound = %v for a finite-support distribution", res.ErrorBound)
	}
}

func TestTMRAgainstBruteForce(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	for _, dist := range []defects.Distribution{
		nb(2, 0.25), nb(4, 2), defects.Poisson{Lambda: 1.5}, defects.Geometric{Lambda: 1},
	} {
		res, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-5})
		if err != nil {
			t.Fatalf("%v: Evaluate: %v", dist, err)
		}
		ref, err := BruteForce(sys, Options{Defects: dist, Epsilon: 1e-5})
		if err != nil {
			t.Fatalf("%v: BruteForce: %v", dist, err)
		}
		if math.Abs(res.Yield-ref.Yield) > 1e-10 {
			t.Errorf("%v: method %v vs brute force %v", dist, res.Yield, ref.Yield)
		}
		if res.M != ref.M {
			t.Errorf("%v: M %d vs %d", dist, res.M, ref.M)
		}
	}
}

func TestAllRoutesAgree(t *testing.T) {
	sys := tmrSystem(0.25, 0.15, 0.1)
	opts := Options{Defects: nb(2, 2), Epsilon: 5e-3}
	a, err := Evaluate(sys, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	c, err := EvaluateDirectMDD(sys, opts)
	if err != nil {
		t.Fatalf("EvaluateDirectMDD: %v", err)
	}
	d, err := BruteForce(sys, opts)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	// Both build routes end in the same evaluation of the same
	// canonical ROMDD, so they agree to the bit.
	if c.Yield != a.Yield {
		t.Errorf("direct-mdd route yield %.17g differs from main %.17g", c.Yield, a.Yield)
	}
	if math.Abs(d.Yield-a.Yield) > 1e-10 {
		t.Errorf("brute route yield %v differs from main %v", d.Yield, a.Yield)
	}
	// Canonical ROMDD: the direct-MDD route must build the identical
	// diagram, hence the identical node count.
	if a.ROMDDSize != c.ROMDDSize {
		t.Errorf("converted ROMDD size %d != directly built %d (canonicity violated)", a.ROMDDSize, c.ROMDDSize)
	}
	if a.CodedROBDDSize <= 0 || a.ROBDDPeak <= 0 {
		t.Errorf("ROBDD stats inconsistent: size %d, peak %d", a.CodedROBDDSize, a.ROBDDPeak)
	}
}

func TestYieldMonotoneInM(t *testing.T) {
	// Y_M is non-decreasing in M (each added term is ≥ 0), so forcing
	// a smaller M must give a smaller-or-equal (more pessimistic)
	// yield.
	sys := tmrSystem(0.2, 0.2, 0.1)
	opts := Options{Defects: nb(2, 2), Epsilon: 1e-6}
	prev := -1.0
	for m := 0; m <= 8; m++ {
		o := opts
		o.ForceM, o.ForceMSet = m, true
		res, err := Evaluate(sys, o)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if res.Yield < prev-1e-14 {
			t.Errorf("yield decreased with M: %v at M=%d after %v", res.Yield, m, prev)
		}
		if res.M != m {
			t.Errorf("forced M not honoured: %d", res.M)
		}
		prev = res.Yield
		// The bracketing invariant Y_M ≤ Y ≤ Y_M + tail must hold.
		if res.Yield < 0 || res.Yield+res.ErrorBound > 1+1e-12 {
			t.Errorf("M=%d: bracket [%v, %v] out of range", m, res.Yield, res.Yield+res.ErrorBound)
		}
	}
}

func TestEpsilonControlsM(t *testing.T) {
	sys := tmrSystem(0.2, 0.2, 0.1)
	mOf := func(eps float64) int {
		res, err := Evaluate(sys, Options{Defects: nb(2, 2), Epsilon: eps})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if res.ErrorBound > eps {
			t.Errorf("eps=%v: ErrorBound %v exceeds it", eps, res.ErrorBound)
		}
		return res.M
	}
	if m1, m2 := mOf(1e-2), mOf(1e-6); m1 >= m2 {
		t.Errorf("tighter eps did not increase M: %d vs %d", m1, m2)
	}
}

func TestOptionsValidation(t *testing.T) {
	sys := tmrSystem(0.2, 0.2, 0.1)
	if _, err := Evaluate(sys, Options{}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := Evaluate(sys, Options{Defects: nb(1, 1), Epsilon: 2}); err == nil {
		t.Error("eps ≥ 1 accepted")
	}
	if _, err := Evaluate(sys, Options{Defects: nb(1, 1), MVOrder: order.MVWV, BitOrder: order.BitWeight}); err == nil {
		t.Error("incompatible ordering combination accepted")
	}
	if _, err := Evaluate(sys, Options{Defects: nb(1, 1), NodeLimit: -1}); err == nil {
		t.Error("negative node limit accepted")
	}
	o := Options{Defects: nb(1, 1), ForceM: -1, ForceMSet: true}
	if _, err := Evaluate(sys, o); err == nil {
		t.Error("negative forced M accepted")
	}
}

func TestSystemValidation(t *testing.T) {
	good := tmrSystem(0.2, 0.2, 0.1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	var nilSys *System
	if err := nilSys.Validate(); err == nil {
		t.Error("nil system accepted")
	}
	oneComp := &System{Name: "x", Components: []Component{{P: 0.1}}, FaultTree: logic.New()}
	if err := oneComp.Validate(); err == nil {
		t.Error("single-component system accepted")
	}
	noTree := &System{Name: "x", Components: []Component{{P: 0.1}, {P: 0.1}}}
	if err := noTree.Validate(); err == nil {
		t.Error("missing fault tree accepted")
	}
	// Mismatched inputs.
	f := logic.New()
	f.SetOutput(f.Input("only"))
	mismatch := &System{Name: "x", Components: []Component{{P: 0.1}, {P: 0.1}}, FaultTree: f}
	if err := mismatch.Validate(); err == nil {
		t.Error("input/component mismatch accepted")
	}
	bad := tmrSystem(0.2, -0.1, 0.1)
	if err := bad.Validate(); err == nil {
		t.Error("negative P accepted")
	}
	zero := tmrSystem(0, 0, 0)
	if err := zero.Validate(); err == nil {
		t.Error("P_L = 0 accepted")
	}
	over := tmrSystem(0.5, 0.4, 0.3)
	if err := over.Validate(); err == nil {
		t.Error("P_L > 1 accepted")
	}
}

func TestNodeLimitPropagates(t *testing.T) {
	sys := tmrSystem(0.2, 0.2, 0.1)
	res, err := Evaluate(sys, Options{Defects: nb(4, 0.25), Epsilon: 1e-6, NodeLimit: 16})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if res == nil || res.ROBDDPeak == 0 {
		t.Error("failed evaluation must still report the peak reached")
	}
}

func TestBruteForceLimits(t *testing.T) {
	// 21 components exceeds the brute-force bound.
	ps := make([]float64, 21)
	for i := range ps {
		ps[i] = 0.01
	}
	sys := seriesSystem(ps...)
	if _, err := BruteForce(sys, Options{Defects: nb(1, 1)}); err == nil {
		t.Error("brute force over 21 components accepted")
	}
}

func TestPhasesPopulated(t *testing.T) {
	sys := tmrSystem(0.2, 0.2, 0.1)
	res, err := Evaluate(sys, Options{Defects: nb(2, 2), Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Phases.Total() <= 0 {
		t.Error("phase timings not populated")
	}
	if res.GGates <= 0 || res.BinaryVars <= 0 {
		t.Errorf("G stats not populated: %d gates, %d vars", res.GGates, res.BinaryVars)
	}
	if res.CodedROBDDSize <= 0 || res.ROMDDSize <= 0 || res.ROBDDPeak < res.CodedROBDDSize {
		t.Errorf("size stats implausible: robdd=%d peak=%d romdd=%d",
			res.CodedROBDDSize, res.ROBDDPeak, res.ROMDDSize)
	}
}

// randomSystem builds a random monotone system with ≤ 6 components.
func randomSystem(rng *rand.Rand) *System {
	c := 3 + rng.Intn(4)
	f := logic.New()
	pool := make([]logic.GateID, 0, 32)
	comps := make([]Component, c)
	total := 0.0
	for i := 0; i < c; i++ {
		pool = append(pool, f.Input(fmt.Sprintf("x%d", i+1)))
		comps[i].Name = fmt.Sprintf("x%d", i+1)
		comps[i].P = 0.02 + 0.1*rng.Float64()
		total += comps[i].P
	}
	// Normalize to a random P_L in (0.2, 0.8).
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
	return &System{Name: "random", Components: comps, FaultTree: f}
}

// Property: on random monotone systems the method equals brute force
// and all routes agree, for random orderings.
func TestQuickMethodMatchesBruteForce(t *testing.T) {
	mvKinds := []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVTopology, order.MVWeight, order.MVH4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		opts := Options{
			Defects: nb(0.5+2*rng.Float64(), 0.5+3*rng.Float64()),
			Epsilon: 1e-3,
			MVOrder: mvKinds[rng.Intn(len(mvKinds))],
		}
		res, err := Evaluate(sys, opts)
		if err != nil {
			return false
		}
		ref, err := BruteForce(sys, opts)
		if err != nil {
			return false
		}
		if math.Abs(res.Yield-ref.Yield) > 1e-9 {
			return false
		}
		direct, err := EvaluateDirectMDD(sys, opts)
		if err != nil {
			return false
		}
		return math.Abs(direct.Yield-res.Yield) < 1e-9 && direct.ROMDDSize == res.ROMDDSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: yield bracket is always within [0,1] and ErrorBound ≤ eps.
func TestQuickBracketSane(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng)
		eps := math.Pow(10, -2-2*rng.Float64())
		res, err := Evaluate(sys, Options{Defects: nb(1+rng.Float64()*2, 1+rng.Float64()*2), Epsilon: eps})
		if err != nil {
			return false
		}
		return res.Yield >= -1e-12 && res.Yield+res.ErrorBound <= 1+1e-9 && res.ErrorBound <= eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
