package yield

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// allMVKinds lists the seven MV orderings: W on top (wv, wvr), at the
// bottom (vw, vrw), and wherever the heuristics put it.
var allMVKinds = []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVTopology, order.MVWeight, order.MVH4}

// forwardProb is the plain forward pass over a frozen arena — the sum
// every evaluation formed before the pass was split at W: each node's
// value is Σ_v p_v·value(child_v), children before parents.
func forwardProb(d mdd.FrozenData, probs [][]float64) float64 {
	vals := make([]float64, len(d.Levels))
	vals[mdd.True] = 1
	off := 0
	for i := 2; i < len(d.Levels); i++ {
		row := probs[d.Levels[i]]
		total := 0.0
		for v, k := range d.Kids[off : off+len(row)] {
			if p := row[v]; p != 0 {
				total += p * vals[k]
			}
		}
		off += len(row)
		vals[i] = total
	}
	return vals[d.Root]
}

// TestConditionalVectorOracle checks the split pass on the 50-tree
// differential under every MV ordering. Its vector entry for W = k is
// 1 − Y_k of the Möbius reference and of the DP over F's own ROBDD
// (CondFail), which agree with each other to 1e-13, and the entry for
// W = M+1 is 1. The yield it gives equals the plain forward pass
// exactly when W is on top (the root is then the only W node), is
// within a few ulp of it otherwise, and is within 1e-12 of ExactYield.
func TestConditionalVectorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	trees := 50
	if testing.Short() {
		trees = 14
	}
	for i := 0; i < trees; i++ {
		c := 3 + rng.Intn(4)
		sys := randomOracleSystem(rng, c)
		opts := Options{
			Defects: randomDistribution(rng),
			Epsilon: []float64{5e-2, 1e-2, 2e-3}[rng.Intn(3)],
			MVOrder: allMVKinds[i%len(allMVKinds)],
		}
		name := fmt.Sprintf("tree %d (C=%d, %v, mv=%v)", i, c, opts.Defects, opts.MVOrder)
		r, err := NewReevaluator(sys, opts)
		if err != nil {
			t.Fatalf("%s: NewReevaluator: %v", name, err)
		}
		yk, p, err := bruteForceYk(sys, opts)
		if err != nil {
			t.Fatalf("%s: bruteForceYk: %v", name, err)
		}
		m := r.M()
		if p.m != m {
			t.Fatalf("%s: oracle M=%d, model M=%d", name, p.m, m)
		}
		switch opts.MVOrder {
		case order.MVWV, order.MVWVR:
			if r.wLevel != 0 {
				t.Errorf("%s: W at level %d, want the top", name, r.wLevel)
			}
		case order.MVVW, order.MVVRW:
			if r.wLevel != m {
				t.Errorf("%s: W at level %d, want the bottom (%d)", name, r.wLevel, m)
			}
		}
		g, s, err := r.condVector(p.pprime, nil)
		if err != nil {
			t.Fatalf("%s: condVector: %v", name, err)
		}
		if len(g) != m+2 {
			t.Fatalf("%s: vector has %d entries, want M+2 = %d", name, len(g), m+2)
		}
		cf, err := NewCondFail(sys, opts)
		if err != nil {
			t.Fatalf("%s: NewCondFail: %v", name, err)
		}
		dp := cf.Vector(nil)
		if cf.M != m || len(dp) != m+1 {
			t.Fatalf("%s: DP M=%d with %d entries, model M=%d", name, cf.M, len(dp), m)
		}
		for k := 0; k <= m; k++ {
			if d := math.Abs(g[k] + s - (1 - yk[k])); d > 1e-12 {
				t.Errorf("%s: entry %d is %.17g, 1 − Y_%d = %.17g", name, k, g[k]+s, k, 1-yk[k])
			}
			if d := math.Abs(dp[k] - (1 - yk[k])); d > 1e-13 {
				t.Errorf("%s: DP entry %d is %.17g, Möbius 1 − Y_%d = %.17g", name, k, dp[k], k, 1-yk[k])
			}
			if d := math.Abs(g[k] + s - dp[k]); d > 1e-12 {
				t.Errorf("%s: entry %d is %.17g, DP %.17g", name, k, g[k]+s, dp[k])
			}
		}
		if r.wLevel == 0 && g[m+1]+s != 1 {
			t.Errorf("%s: W on top, entry M+1 = %v + %v, want exactly 1", name, g[m+1], s)
		} else if math.Abs(g[m+1]+s-1) > 1e-12 {
			t.Errorf("%s: entry M+1 = %.17g, want 1", name, g[m+1]+s)
		}

		old := 1 - forwardProb(r.frozen.Data(), probTable(r.groupSeq, p.pprime, wRow(p.qprime, p.tail)))
		if r.wLevel == 0 {
			if r.Result.Yield != old {
				t.Errorf("%s: yield %.17g, forward pass %.17g", name, r.Result.Yield, old)
			}
		} else if d := math.Abs(r.Result.Yield - old); d > 4*0x1p-52 {
			t.Errorf("%s: yield %.17g, forward pass %.17g (%.3g apart)", name, r.Result.Yield, old, d)
		}
		exact, err := ExactYield(sys, opts)
		if err != nil {
			t.Fatalf("%s: ExactYield: %v", name, err)
		}
		if d := math.Abs(r.Result.Yield - exact.Yield); d > 1e-12 {
			t.Errorf("%s: yield %.17g, oracle %.17g", name, r.Result.Yield, exact.Yield)
		}
		ps := make([]float64, c)
		for j, comp := range sys.Components {
			ps[j] = comp.P
		}
		if y, _, err := r.Yield(ps, opts.Defects); err != nil || y != r.Result.Yield {
			t.Errorf("%s: Yield %v (%v), build-time yield %v", name, y, err, r.Result.Yield)
		}
	}
}

// TestCondFailZeroLethality checks the DP on systems with P_i = 0
// components, which Validate allows: a component that no defect hits,
// and levels below which no defect can land (q = 0), must still give
// ExactYield's yield to 1e-12 and the Möbius reference's 1 − Y_k to
// 1e-13.
func TestCondFailZeroLethality(t *testing.T) {
	systems := []*System{
		seriesSystem(0.4, 0, 0),
		seriesSystem(0, 0.3, 0.2),
		tmrSystem(0.2, 0.3, 0),
		tmrSystem(0, 0.2, 0),
		parallelSystem(0.1, 0, 0.5),
	}
	rng := rand.New(rand.NewSource(2409))
	for i := 0; i < 12; i++ {
		sys := randomOracleSystem(rng, 3+rng.Intn(4))
		for j := range sys.Components {
			if j == 0 || rng.Intn(2) == 0 {
				sys.Components[j].P = 0
			}
		}
		if sys.PL() > 0 {
			systems = append(systems, sys)
		}
	}
	for i, sys := range systems {
		opts := Options{Defects: nb(2, 2), Epsilon: 2e-3}
		name := fmt.Sprintf("system %d (%s, P=%v)", i, sys.Name, sys.Components)
		bf, err := BruteForce(sys, opts)
		if err != nil {
			t.Fatalf("%s: BruteForce: %v", name, err)
		}
		exact, err := ExactYield(sys, opts)
		if err != nil {
			t.Fatalf("%s: ExactYield: %v", name, err)
		}
		if d := math.Abs(bf.Yield - exact.Yield); d > 1e-12 || math.IsNaN(bf.Yield) {
			t.Errorf("%s: DP yield %.17g, ExactYield %.17g", name, bf.Yield, exact.Yield)
		}
		cf, err := NewCondFail(sys, opts)
		if err != nil {
			t.Fatalf("%s: NewCondFail: %v", name, err)
		}
		yk, _, err := bruteForceYk(sys, opts)
		if err != nil {
			t.Fatalf("%s: bruteForceYk: %v", name, err)
		}
		for k, v := range cf.Vector(nil) {
			if d := math.Abs(v - (1 - yk[k])); d > 1e-13 || math.IsNaN(v) {
				t.Errorf("%s: DP entry %d is %.17g, Möbius 1 − Y_%d = %.17g", name, k, v, k, 1-yk[k])
			}
		}
	}
}

// evaluationGrids are the three sweep shapes of the agreement test:
// one P_i vector under many laws, many P_i vectors under one law, and
// a mix with repeats and an invalid point.
func evaluationGrids(t *testing.T) map[string][]SweepPoint {
	t.Helper()
	hier, err := defects.NewHierarchical(1.5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	laws := []defects.Distribution{nb(0.5, 0.25), nb(2, 2), nb(4, 3.4), defects.Poisson{Lambda: 1}, hier, defects.Geometric{Lambda: 0.7}}
	shared := []float64{0.2, 0.15, 0.15}
	distinct := [][]float64{{0.2, 0.15, 0.15}, {0.1, 0.3, 0.05}, {0.05, 0.05, 0.4}, {0.3, 0.3, 0.3}, {0.01, 0.2, 0.02}, {0.5, 0.25, 0.25}}
	grids := map[string][]SweepPoint{"shared-P": LambdaGrid(shared, laws)}
	for _, ps := range distinct {
		grids["distinct-P"] = append(grids["distinct-P"], SweepPoint{PS: ps, Dist: nb(2, 2)})
	}
	for i, d := range laws {
		grids["mixed"] = append(grids["mixed"],
			SweepPoint{PS: distinct[i%3], Dist: d},
			SweepPoint{PS: append([]float64(nil), distinct[(i+1)%3]...), Dist: d})
	}
	grids["mixed"] = append(grids["mixed"], SweepPoint{PS: []float64{0.9, 0.9, 0.9}, Dist: nb(2, 2)})
	return grids
}

// TestEvaluationPathsAgree: Yield, YieldRaw, every Sweep point at 1
// and 4 workers, and a Reevaluator restored from the snapshot give the
// same bits, with W on top and at the bottom.
func TestEvaluationPathsAgree(t *testing.T) {
	for _, mv := range []order.MVKind{order.MVWV, order.MVVW, order.MVWeight} {
		r, err := NewReevaluator(tmrSystem(0.2, 0.15, 0.15), Options{Defects: nb(2, 2), Epsilon: 5e-3, MVOrder: mv})
		if err != nil {
			t.Fatalf("%v: NewReevaluator: %v", mv, err)
		}
		restored, err := RestoreReevaluator(r.Snapshot())
		if err != nil {
			t.Fatalf("%v: RestoreReevaluator: %v", mv, err)
		}
		for name, grid := range evaluationGrids(t) {
			serial := r.Sweep(grid, SweepOptions{Workers: 1})
			parallel := r.Sweep(grid, SweepOptions{Workers: 4})
			for i, pt := range grid {
				where := fmt.Sprintf("%v %s point %d", mv, name, i)
				y, b, err := r.Yield(pt.PS, pt.Dist)
				if err != nil {
					if serial[i].Err == nil || parallel[i].Err == nil {
						t.Errorf("%s: Yield fails (%v), sweep does not", where, err)
					}
					continue
				}
				if serial[i] != (SweepResult{Yield: y, ErrorBound: b}) || parallel[i] != serial[i] {
					t.Errorf("%s: Yield %v±%v, sweep %+v / %+v", where, y, b, serial[i], parallel[i])
				}
				ry, rb, err := restored.Yield(pt.PS, pt.Dist)
				if err != nil || ry != y || rb != b {
					t.Errorf("%s: restored %v±%v (%v), want %v±%v", where, ry, rb, err, y, b)
				}
				pprime, pl, _ := r.lethality(pt.PS)
				lethal, err := defects.Thin(pt.Dist, pl)
				if err != nil {
					t.Fatal(err)
				}
				qprime, tail, err := defects.PMFTable(lethal, r.M())
				if err != nil {
					t.Fatal(err)
				}
				if raw, err := r.YieldRaw(pprime, qprime, tail); err != nil || raw != y || tail != b {
					t.Errorf("%s: YieldRaw %v (%v), Yield %v", where, raw, err, y)
				}
			}
		}
	}
}

// TestSweepPassesPerDistinctLethality: a sweep runs one ROMDD pass
// per distinct P_i vector, whatever the number of points.
func TestSweepPassesPerDistinctLethality(t *testing.T) {
	r, err := NewReevaluator(tmrSystem(0.2, 0.15, 0.15), Options{Defects: nb(2, 2), Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	for name, grid := range evaluationGrids(t) {
		rec := obs.NewRegistry()
		r.Sweep(grid, SweepOptions{Workers: 3, Recorder: rec})
		distinct := map[string]bool{}
		for _, pt := range grid {
			if _, _, err := r.lethality(pt.PS); err == nil {
				distinct[lethalityKey(pt.PS)] = true
			}
		}
		snap := rec.Snapshot()
		if got := snap.Counters["sweep.passes"]; got != int64(len(distinct)) {
			t.Errorf("%s: %d passes for %d distinct lethality vectors", name, got, len(distinct))
		}
		if got := snap.Counters["sweep.points"]; got != int64(len(grid)) {
			t.Errorf("%s: %d points recorded, want %d", name, got, len(grid))
		}
	}
}

// TestSensitivitiesSeriesClosedForm: in a series system Y_M = Q'_0, so
// every ∂Y/∂P_i is dQ'_0/dP_L, closed-form for the negative binomial
// and Poisson laws. P_L = 1 is the case where bumping a P_i upward
// leaves (0,1].
func TestSensitivitiesSeriesClosedForm(t *testing.T) {
	for _, ps := range [][]float64{{0.2, 0.15, 0.15}, {0.5, 0.25, 0.25}} {
		pl := ps[0] + ps[1] + ps[2]
		for _, dist := range []defects.Distribution{nb(2, 2), nb(0.7, 0.5), defects.Poisson{Lambda: 1.3}} {
			r, err := NewReevaluator(seriesSystem(ps...), Options{Defects: dist, Epsilon: 5e-3})
			if err != nil {
				t.Fatalf("NewReevaluator: %v", err)
			}
			y, _, err := r.Yield(ps, dist)
			if err != nil {
				t.Fatalf("P_L=%v %v: Yield: %v", pl, dist, err)
			}
			var want float64
			switch d := dist.(type) {
			case defects.NegativeBinomial:
				lp := pl * d.Lambda
				q0 := math.Pow(1+lp/d.Alpha, -d.Alpha)
				want = -d.Lambda * q0 * d.Alpha / (d.Alpha + lp)
				if math.Abs(y-q0) > 1e-14 {
					t.Errorf("P_L=%v %v: yield %v, Q'_0 = %v", pl, dist, y, q0)
				}
			case defects.Poisson:
				want = -d.Lambda * math.Exp(-pl*d.Lambda)
			}
			sens, err := r.Sensitivities(ps, dist, 0)
			if err != nil {
				t.Fatalf("P_L=%v %v: Sensitivities: %v", pl, dist, err)
			}
			for i, s := range sens {
				if math.Abs(s-want) > 1e-13*math.Abs(want) {
					t.Errorf("P_L=%v %v: ∂Y/∂P_%d = %.17g, want %.17g", pl, dist, i, s, want)
				}
			}
		}
	}
}

// centralDifference is (Y(P_i+h) − Y(P_i−h))/2h through Yield, with h
// relative to P_L.
func centralDifference(t *testing.T, r *Reevaluator, ps []float64, dist defects.Distribution, i int) float64 {
	t.Helper()
	pl := 0.0
	for _, p := range ps {
		pl += p
	}
	h := 1e-5 * pl
	work := append([]float64(nil), ps...)
	work[i] = ps[i] + h
	hi, _, err := r.Yield(work, dist)
	if err != nil {
		t.Fatalf("Yield(%v): %v", work, err)
	}
	work[i] = ps[i] - h
	lo, _, err := r.Yield(work, dist)
	if err != nil {
		t.Fatalf("Yield(%v): %v", work, err)
	}
	return (hi - lo) / (2 * h)
}

// TestSensitivitiesMatchCentralDifference compares the reverse-mode
// sensitivities with central differences of Yield on the 50-tree
// differential, across every defect family of the differential and
// every MV ordering.
func TestSensitivitiesMatchCentralDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7103))
	trees := 50
	if testing.Short() {
		trees = 14
	}
	for n := 0; n < trees; n++ {
		c := 3 + rng.Intn(4)
		sys := randomOracleSystem(rng, c)
		dist := randomDistribution(rng)
		opts := Options{Defects: dist, Epsilon: 1e-2, MVOrder: allMVKinds[n%len(allMVKinds)]}
		r, err := NewReevaluator(sys, opts)
		if err != nil {
			t.Fatalf("tree %d: NewReevaluator: %v", n, err)
		}
		ps := make([]float64, c)
		for i, comp := range sys.Components {
			ps[i] = comp.P
		}
		sens, err := r.Sensitivities(ps, dist, 0)
		if err != nil {
			t.Fatalf("tree %d: Sensitivities: %v", n, err)
		}
		for i := range ps {
			want := centralDifference(t, r, ps, dist, i)
			// The absolute floor covers trees whose yield hardly
			// depends on P_i: there the rounding of the tabulated law
			// over the difference step dominates both sides.
			if math.Abs(sens[i]-want) > 1e-6*math.Abs(want)+1e-8 {
				t.Errorf("tree %d (%v, mv=%v): ∂Y/∂P_%d = %.12g, central difference %.12g", n, dist, opts.MVOrder, i, sens[i], want)
			}
		}
	}
}

// TestLawSlopeMatchesDifference checks lawSlope's ∂w/∂P_L against a
// difference of the tabulated law in P_L for every family of the
// defects package, the numerically thinned ones included. At P_L = 1
// the law is not tabulated above 1, so there the difference is the
// second-order backward one.
func TestLawSlopeMatchesDifference(t *testing.T) {
	hier, err := defects.NewHierarchical(2, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := defects.NewMultilevel(1.5, 0.8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := defects.NewLogarithmic(0.4)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := defects.NewCompoundPoisson(1.2, logs)
	if err != nil {
		t.Fatal(err)
	}
	laws := []defects.Distribution{
		nb(2, 2), nb(0.5, 0.25), nb(4, 3.4), defects.Poisson{Lambda: 1.7},
		defects.Geometric{Lambda: 1.3}, defects.Deterministic{N: 5},
		defects.Binomial{N: 9, P: 0.6}, compound, logs, multi, hier,
	}
	const m = 10
	row := func(d defects.Distribution, pl float64) ([]float64, float64) {
		t.Helper()
		lethal, err := defects.Thin(d, pl)
		if err != nil {
			t.Fatalf("%v at P_L = %v: %v", d, pl, err)
		}
		qprime, tail, err := defects.PMFTable(lethal, m)
		if err != nil {
			t.Fatal(err)
		}
		return wRow(qprime, tail), lethal.PMF(m + 1)
	}
	for _, d := range laws {
		for _, pl := range []float64{0.3, 0.7, 1} {
			w, next := row(d, pl)
			slope := lawSlope(w, next, pl)
			const h = 1e-4
			diff := make([]float64, len(w))
			if pl < 1 {
				hi, _ := row(d, pl+h)
				lo, _ := row(d, pl-h)
				for k := range diff {
					diff[k] = (hi[k] - lo[k]) / (2 * h)
				}
			} else {
				lo1, _ := row(d, pl-h)
				lo2, _ := row(d, pl-2*h)
				for k := range diff {
					diff[k] = (3*w[k] - 4*lo1[k] + lo2[k]) / (2 * h)
				}
			}
			if len(slope) != m+2 {
				t.Fatalf("%v: slope has %d entries, want M+2 = %d", d, len(slope), m+2)
			}
			scale := 0.0
			for _, v := range slope {
				scale = math.Max(scale, math.Abs(v))
			}
			for k := range slope {
				if math.Abs(slope[k]-diff[k]) > 1e-6*scale {
					t.Errorf("%v at P_L = %v: ∂w_%d/∂P_L = %.12g, difference %.12g", d, pl, k, slope[k], diff[k])
				}
			}
		}
	}
}

// TestSensitivitiesNumericLaws checks the sensitivities of the
// hierarchical and compound Poisson laws, whose thinned law has no
// closed form, against central differences of Yield, and at P_L = 1
// against a backward difference.
func TestSensitivitiesNumericLaws(t *testing.T) {
	hier, err := defects.NewHierarchical(2, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := defects.NewLogarithmic(0.4)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := defects.NewCompoundPoisson(1.2, logs)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []defects.Distribution{hier, compound} {
		r, err := NewReevaluator(tmrSystem(0.2, 0.15, 0.15), Options{Defects: dist, Epsilon: 1e-3})
		if err != nil {
			t.Fatalf("%v: NewReevaluator: %v", dist, err)
		}
		ps := []float64{0.2, 0.15, 0.15}
		sens, err := r.Sensitivities(ps, dist, 0)
		if err != nil {
			t.Fatalf("%v: Sensitivities: %v", dist, err)
		}
		for i := range ps {
			want := centralDifference(t, r, ps, dist, i)
			if math.Abs(sens[i]-want) > 1e-6*math.Abs(want) {
				t.Errorf("%v: ∂Y/∂P_%d = %.12g, central difference %.12g", dist, i, sens[i], want)
			}
		}
		// At P_L = 1 the law is not tabulated above 1; compare with a
		// backward difference along P_0.
		full := []float64{0.5, 0.25, 0.25}
		sens, err = r.Sensitivities(full, dist, 0)
		if err != nil {
			t.Fatalf("%v at P_L = 1: Sensitivities: %v", dist, err)
		}
		const h = 1e-6
		y, _, err := r.Yield(full, dist)
		if err != nil {
			t.Fatal(err)
		}
		y0, _, err := r.Yield([]float64{0.5 - h, 0.25, 0.25}, dist)
		if err != nil {
			t.Fatal(err)
		}
		if want := (y - y0) / h; math.Abs(sens[0]-want) > 1e-4*math.Abs(want) {
			t.Errorf("%v at P_L = 1: ∂Y/∂P_0 = %.12g, backward difference %.12g", dist, sens[0], want)
		}
	}
}
