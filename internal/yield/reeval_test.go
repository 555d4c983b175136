package yield

import (
	"math"
	"testing"

	"socyield/internal/defects"
)

func TestReevaluatorMatchesEvaluate(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	opts := Options{Defects: dist, Epsilon: 5e-3}
	r, err := NewReevaluator(sys, opts)
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	base, err := Evaluate(sys, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(r.Result.Yield-base.Yield) > 1e-14 {
		t.Errorf("construction yield %v != Evaluate %v", r.Result.Yield, base.Yield)
	}
	if r.M() != base.M {
		t.Errorf("M = %d, want %d", r.M(), base.M)
	}
	// Reevaluating the identical model reproduces the yield.
	ps := []float64{0.2, 0.15, 0.15}
	y, bound, err := r.Yield(ps, dist)
	if err != nil {
		t.Fatalf("Yield: %v", err)
	}
	if math.Abs(y-base.Yield) > 1e-14 {
		t.Errorf("reevaluated %v, want %v", y, base.Yield)
	}
	if math.Abs(bound-base.ErrorBound) > 1e-14 {
		t.Errorf("bound %v, want %v", bound, base.ErrorBound)
	}
}

func TestReevaluatorSweepsMatchEvaluate(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	r, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	// Sweep component weights; each point must match a fresh Evaluate
	// at the same truncation point.
	for _, ps := range [][]float64{
		{0.1, 0.1, 0.1},
		{0.3, 0.1, 0.05},
		{0.05, 0.25, 0.2},
	} {
		y, _, err := r.Yield(ps, dist)
		if err != nil {
			t.Fatalf("Yield(%v): %v", ps, err)
		}
		fresh := &System{Name: "sweep", FaultTree: sys.FaultTree, Components: []Component{
			{Name: "m1", P: ps[0]}, {Name: "m2", P: ps[1]}, {Name: "m3", P: ps[2]},
		}}
		want, err := Evaluate(fresh, Options{Defects: dist, Epsilon: epsilonForM(t, fresh, dist, r.M())})
		if err != nil {
			t.Fatalf("Evaluate(%v): %v", ps, err)
		}
		if math.Abs(y-want.Yield) > 1e-12 {
			t.Errorf("ps=%v: reeval %v, fresh %v", ps, y, want.Yield)
		}
	}
	// Sweeping the distribution too.
	y, _, err := r.Yield([]float64{0.2, 0.15, 0.15}, defects.Poisson{Lambda: 1})
	if err != nil {
		t.Fatalf("Yield with Poisson: %v", err)
	}
	poisson := defects.Poisson{Lambda: 1}
	want, err := Evaluate(sys, Options{Defects: poisson, Epsilon: epsilonForM(t, sys, poisson, r.M())})
	if err != nil {
		t.Fatalf("Evaluate Poisson: %v", err)
	}
	if math.Abs(y-want.Yield) > 1e-12 {
		t.Errorf("Poisson sweep: reeval %v, fresh %v", y, want.Yield)
	}
}

func TestReevaluatorValidation(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	r, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	if _, _, err := r.Yield([]float64{0.1}, dist); err == nil {
		t.Error("short ps accepted")
	}
	if _, _, err := r.Yield([]float64{-0.1, 0.1, 0.1}, dist); err == nil {
		t.Error("negative P accepted")
	}
	if _, _, err := r.Yield([]float64{0, 0, 0}, dist); err == nil {
		t.Error("P_L = 0 accepted")
	}
	if _, _, err := r.Yield([]float64{0.9, 0.9, 0.9}, dist); err == nil {
		t.Error("P_L > 1 accepted")
	}
	if _, err := r.YieldRaw([]float64{1, 0, 0}, []float64{1}, 0); err == nil {
		t.Error("wrong qprime length accepted")
	}
	if _, err := r.YieldRaw([]float64{1, 0}, make([]float64, r.M()+1), 0); err == nil {
		t.Error("wrong pprime length accepted")
	}
}

func TestSensitivities(t *testing.T) {
	// Series system: Y = Q'_0(P_L) — every component's sensitivity is
	// the same and strictly negative (more lethality, less yield).
	sys := seriesSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	r, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	ps := []float64{0.2, 0.15, 0.15}
	sens, err := r.Sensitivities(ps, dist, 0)
	if err != nil {
		t.Fatalf("Sensitivities: %v", err)
	}
	for i, s := range sens {
		if s >= 0 {
			t.Errorf("component %d: sensitivity %v, want < 0", i, s)
		}
	}
	// In a series system the structure treats components identically,
	// so sensitivities must be (numerically) equal.
	if math.Abs(sens[0]-sens[1]) > 1e-6 || math.Abs(sens[1]-sens[2]) > 1e-6 {
		t.Errorf("series sensitivities differ: %v", sens)
	}
	// Validate against a direct finite difference through Evaluate.
	const d = 1e-5
	bump := &System{Name: "s", FaultTree: sys.FaultTree, Components: []Component{
		{Name: "c1", P: 0.2 + d}, {Name: "c2", P: 0.15}, {Name: "c3", P: 0.15},
	}}
	down := &System{Name: "s", FaultTree: sys.FaultTree, Components: []Component{
		{Name: "c1", P: 0.2 - d}, {Name: "c2", P: 0.15}, {Name: "c3", P: 0.15},
	}}
	hi, err := Evaluate(bump, Options{Defects: dist, Epsilon: epsilonForM(t, bump, dist, r.M())})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	lo, err := Evaluate(down, Options{Defects: dist, Epsilon: epsilonForM(t, down, dist, r.M())})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	want := (hi.Yield - lo.Yield) / (2 * d)
	if math.Abs(sens[0]-want) > 1e-3*math.Abs(want) {
		t.Errorf("sensitivity %v vs direct %v", sens[0], want)
	}
	// Error paths.
	if _, err := r.Sensitivities([]float64{0.1}, dist, 0); err == nil {
		t.Error("short ps accepted")
	}
}
