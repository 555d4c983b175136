package reliability

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/yield"
)

func tmr(p1, p2, p3 float64) *yield.System {
	f := logic.New()
	a, b, c := f.Input("a"), f.Input("b"), f.Input("c")
	f.SetOutput(f.Or(f.And(a, b), f.And(a, c), f.And(b, c)))
	return &yield.System{
		Name:       "tmr",
		Components: []yield.Component{{Name: "a", P: p1}, {Name: "b", P: p2}, {Name: "c", P: p3}},
		FaultTree:  f,
	}
}

func expLifetimes(rates ...float64) []Lifetime {
	out := make([]Lifetime, len(rates))
	for i, r := range rates {
		out[i] = Exponential{Rate: r}
	}
	return out
}

// refReliability enumerates the exact R(t): all sequences of k ≤ M
// lethal defect hits and all field-failure subsets.
func refReliability(t *testing.T, sys *yield.System, dist defects.Distribution, eps, tt float64, lts []Lifetime) float64 {
	t.Helper()
	c := len(sys.Components)
	pl := sys.PL()
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := defects.TruncationPoint(lethal, eps)
	if err != nil {
		t.Fatal(err)
	}
	qprime, _, err := defects.PMFTable(lethal, m)
	if err != nil {
		t.Fatal(err)
	}
	pprime := make([]float64, c)
	for i, comp := range sys.Components {
		pprime[i] = comp.P / pl
	}
	unrel := make([]float64, c)
	for i, lt := range lts {
		unrel[i] = lt.Unreliability(tt)
	}
	// P(functioning | defect mask D) over field subsets.
	condOK := make([]float64, 1<<c)
	for d := 0; d < 1<<c; d++ {
		total := 0.0
		for b := 0; b < 1<<c; b++ {
			p := 1.0
			assign := make([]bool, c)
			for i := 0; i < c; i++ {
				if b&(1<<i) != 0 {
					p *= unrel[i]
				} else {
					p *= 1 - unrel[i]
				}
				assign[i] = d&(1<<i) != 0 || b&(1<<i) != 0
			}
			down, err := sys.FaultTree.Eval(assign)
			if err != nil {
				t.Fatal(err)
			}
			if !down {
				total += p
			}
		}
		condOK[d] = total
	}
	// Enumerate defect hit sequences per k.
	rel := 0.0
	for k := 0; k <= m; k++ {
		var rec func(l, mask int, prob float64) float64
		rec = func(l, mask int, prob float64) float64 {
			if l == k {
				return prob * condOK[mask]
			}
			total := 0.0
			for i := 0; i < c; i++ {
				total += rec(l+1, mask|(1<<i), prob*pprime[i])
			}
			return total
		}
		rel += qprime[k] * rec(0, 0, 1.0)
	}
	return rel
}

func TestCurveMatchesEnumeration(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist, _ := defects.NewNegativeBinomial(2, 2)
	lts := expLifetimes(0.01, 0.02, 0.015)
	times := []float64{0, 1, 5, 20, 100}
	res, err := Curve(sys, Options{Defects: dist, Epsilon: 5e-3, Lifetimes: lts}, times)
	if err != nil {
		t.Fatalf("Curve: %v", err)
	}
	if len(res.Points) != len(times) {
		t.Fatalf("%d points, want %d", len(res.Points), len(times))
	}
	for _, pt := range res.Points {
		want := refReliability(t, sys, dist, 5e-3, pt.T, lts)
		if math.Abs(pt.Reliability-want) > 1e-10 {
			t.Errorf("R(%v) = %v, want %v", pt.T, pt.Reliability, want)
		}
	}
}

func TestCurveAtZeroEqualsYield(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist, _ := defects.NewNegativeBinomial(2, 2)
	y, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// YieldAtZero is R(0) whether or not 0 is among the time points.
	for _, times := range [][]float64{{0}, {1, 2}} {
		res, err := Curve(sys, Options{
			Defects: dist, Epsilon: 5e-3,
			Lifetimes: expLifetimes(0.1, 0.1, 0.1),
		}, times)
		if err != nil {
			t.Fatalf("times %v: Curve: %v", times, err)
		}
		if times[0] == 0 && math.Abs(res.Points[0].Reliability-y.Yield) > 1e-12 {
			t.Errorf("R(0) = %v, yield = %v", res.Points[0].Reliability, y.Yield)
		}
		if math.Abs(res.YieldAtZero-y.Yield) > 1e-12 {
			t.Errorf("times %v: YieldAtZero = %v, yield = %v", times, res.YieldAtZero, y.Yield)
		}
	}
}

func TestCurveMonotoneNonIncreasing(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist := defects.Poisson{Lambda: 1}
	times := []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64}
	res, err := Curve(sys, Options{
		Defects: dist, Lifetimes: expLifetimes(0.05, 0.03, 0.04),
	}, times)
	if err != nil {
		t.Fatalf("Curve: %v", err)
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Reliability > res.Points[i-1].Reliability+1e-12 {
			t.Errorf("R increased: %v at t=%v after %v", res.Points[i].Reliability,
				res.Points[i].T, res.Points[i-1].Reliability)
		}
	}
	// With positive rates reliability must eventually drop strictly.
	if res.Points[len(res.Points)-1].Reliability >= res.Points[0].Reliability {
		t.Error("reliability did not decrease over time")
	}
}

func TestCurveZeroRatesStayAtYield(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist := defects.Poisson{Lambda: 1}
	res, err := Curve(sys, Options{
		Defects: dist, Lifetimes: expLifetimes(0, 0, 0),
	}, []float64{0, 10, 1000})
	if err != nil {
		t.Fatalf("Curve: %v", err)
	}
	for _, pt := range res.Points[1:] {
		if math.Abs(pt.Reliability-res.Points[0].Reliability) > 1e-12 {
			t.Errorf("zero-rate R(%v) = %v, want %v", pt.T, pt.Reliability, res.Points[0].Reliability)
		}
	}
}

func TestWeibullLifetime(t *testing.T) {
	w := Weibull{Scale: 10, Shape: 2}
	if got := w.Unreliability(0); got != 0 {
		t.Errorf("Unreliability(0) = %v", got)
	}
	want := 1 - math.Exp(-1) // t = scale
	if got := w.Unreliability(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("Unreliability(scale) = %v, want %v", got, want)
	}
	// Must be usable in a curve.
	sys := tmr(0.2, 0.15, 0.15)
	dist := defects.Poisson{Lambda: 1}
	if _, err := Curve(sys, Options{
		Defects:   dist,
		Lifetimes: []Lifetime{w, w, Exponential{Rate: 0.01}},
	}, []float64{0, 5}); err != nil {
		t.Errorf("Curve with Weibull: %v", err)
	}
	if (Exponential{Rate: 1}).String() == "" || w.String() == "" {
		t.Error("empty Stringers")
	}
}

func TestCurveValidation(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist := defects.Poisson{Lambda: 1}
	lts := expLifetimes(0.1, 0.1, 0.1)
	if _, err := Curve(sys, Options{Lifetimes: lts}, []float64{0}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := Curve(sys, Options{Defects: dist, Lifetimes: lts[:2]}, []float64{0}); err == nil {
		t.Error("wrong lifetime count accepted")
	}
	if _, err := Curve(sys, Options{Defects: dist, Lifetimes: []Lifetime{nil, nil, nil}}, []float64{0}); err == nil {
		t.Error("nil lifetime accepted")
	}
	if _, err := Curve(sys, Options{Defects: dist, Lifetimes: lts}, nil); err == nil {
		t.Error("empty time list accepted")
	}
	if _, err := Curve(sys, Options{Defects: dist, Lifetimes: lts}, []float64{-1}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestCurveStatsPopulated(t *testing.T) {
	sys := tmr(0.2, 0.15, 0.15)
	dist, _ := defects.NewNegativeBinomial(2, 2)
	res, err := Curve(sys, Options{
		Defects: dist, Epsilon: 5e-3, Lifetimes: expLifetimes(0.01, 0.01, 0.01),
	}, []float64{0, 1})
	if err != nil {
		t.Fatalf("Curve: %v", err)
	}
	if res.M != 6 {
		t.Errorf("M = %d, want 6", res.M)
	}
	// 2-of-3 majority: one node on a, two on b, one on c, the terminal.
	if res.ROBDDSize != 5 {
		t.Errorf("ROBDD of F has %d nodes, want 5", res.ROBDDSize)
	}
	for _, pt := range res.Points {
		if pt.ErrorBound <= 0 || pt.ErrorBound > 5e-3 {
			t.Errorf("ErrorBound = %v", pt.ErrorBound)
		}
	}
}

// randomTree returns a random fault tree over c ≤ 8 components with
// random lethalities summing to P_L ∈ (0.3, 0.9).
func randomTree(rng *rand.Rand, c int) *yield.System {
	f := logic.New()
	pool := make([]logic.GateID, 0, c+10)
	for i := 0; i < c; i++ {
		pool = append(pool, f.Input(fmt.Sprintf("x%d", i)))
	}
	pick := func() logic.GateID { return pool[rng.Intn(len(pool))] }
	for g := 0; g < 2+rng.Intn(9); g++ {
		var id logic.GateID
		switch rng.Intn(5) {
		case 0:
			id = f.Not(pick())
		case 1:
			id = f.And(pick(), pick())
		case 2:
			id = f.Or(pick(), pick(), pick())
		case 3:
			id = f.Xor(pick(), pick())
		default:
			id = f.AtLeast(2, pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	f.SetOutput(f.Or(pool[len(pool)-1], pick()))
	sys := &yield.System{Name: "random", FaultTree: f}
	raw := make([]float64, c)
	sum := 0.0
	for i := range raw {
		raw[i] = 0.05 + rng.Float64()
		sum += raw[i]
	}
	pl := 0.3 + 0.6*rng.Float64()
	for i, r := range raw {
		sys.Components = append(sys.Components, yield.Component{Name: fmt.Sprintf("x%d", i), P: pl * r / sum})
	}
	return sys
}

// TestCurveRandomTreesMatchEnumeration checks Curve against the
// enumeration on random fault trees of 2 to 8 components with mixed
// exponential and Weibull lifetimes.
func TestCurveRandomTreesMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(2417))
	trees := 24
	if testing.Short() {
		trees = 8
	}
	for n := 0; n < trees; n++ {
		c := 2 + rng.Intn(7)
		sys := randomTree(rng, c)
		lts := make([]Lifetime, c)
		for i := range lts {
			if rng.Intn(2) == 0 {
				lts[i] = Exponential{Rate: 0.001 + 0.05*rng.Float64()}
			} else {
				lts[i] = Weibull{Scale: 5 + 100*rng.Float64(), Shape: 0.5 + 2.5*rng.Float64()}
			}
		}
		var dist defects.Distribution = defects.Poisson{Lambda: 0.5 + rng.Float64()}
		if rng.Intn(2) == 0 {
			dist, _ = defects.NewNegativeBinomial(0.5+1.5*rng.Float64(), 0.5+3*rng.Float64())
		}
		eps := []float64{2e-2, 1e-2, 5e-3}[rng.Intn(3)]
		times := []float64{0, 20 * rng.Float64(), 100 * rng.Float64(), 400}
		res, err := Curve(sys, Options{Defects: dist, Epsilon: eps, Lifetimes: lts}, times)
		if err != nil {
			t.Fatalf("tree %d (C=%d, %v): Curve: %v", n, c, dist, err)
		}
		for _, pt := range res.Points {
			want := refReliability(t, sys, dist, eps, pt.T, lts)
			if math.Abs(pt.Reliability-want) > 1e-12 {
				t.Errorf("tree %d (C=%d, %v, M=%d): R(%v) = %.17g, enumeration %.17g", n, c, dist, res.M, pt.T, pt.Reliability, want)
			}
		}
		if res.Points[0].Reliability != res.YieldAtZero {
			t.Errorf("tree %d: R(0) = %.17g, YieldAtZero %.17g", n, res.Points[0].Reliability, res.YieldAtZero)
		}
	}
}
