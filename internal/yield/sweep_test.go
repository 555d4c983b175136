package yield

import (
	"math"
	"sync"
	"testing"

	"socyield/internal/defects"
)

// sweepGrid builds a 24-point (λ', α) × P_i grid over the TMR system:
// enough points to exercise the pool, small enough for -race runs.
func sweepGrid(t *testing.T) (*Reevaluator, []SweepPoint) {
	t.Helper()
	sys := tmrSystem(0.2, 0.15, 0.15)
	r, err := NewReevaluator(sys, Options{Defects: nb(2, 2), Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	var points []SweepPoint
	for _, lambda := range []float64{0.5, 1, 2, 4} {
		for _, alpha := range []float64{0.25, 1, 3.4} {
			d, err := defects.NewNegativeBinomial(lambda, alpha)
			if err != nil {
				t.Fatalf("NewNegativeBinomial: %v", err)
			}
			points = append(points,
				SweepPoint{PS: []float64{0.2, 0.15, 0.15}, Dist: d},
				SweepPoint{PS: []float64{0.1, 0.3, 0.05}, Dist: d},
			)
		}
	}
	return r, points
}

// TestSweepDeterministicAcrossWorkers is the determinism contract: a
// ≥20-point sweep must be bit-identical under Workers 1, 3 and 8.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	r, points := sweepGrid(t)
	if len(points) < 20 {
		t.Fatalf("grid has %d points, want ≥ 20", len(points))
	}
	serial := r.Sweep(points, SweepOptions{Workers: 1})
	for _, workers := range []int{3, 8} {
		parallel := r.Sweep(points, SweepOptions{Workers: workers})
		for i := range serial {
			if serial[i].Err != nil || parallel[i].Err != nil {
				t.Fatalf("point %d: errs %v / %v", i, serial[i].Err, parallel[i].Err)
			}
			if serial[i].Yield != parallel[i].Yield || serial[i].ErrorBound != parallel[i].ErrorBound {
				t.Errorf("point %d: workers=1 %v±%v, workers=%d %v±%v",
					i, serial[i].Yield, serial[i].ErrorBound, workers, parallel[i].Yield, parallel[i].ErrorBound)
			}
		}
	}
}

// TestSweepMatchesYield checks every sweep result against the serial
// Yield path — they share the evaluation core, so exact equality.
func TestSweepMatchesYield(t *testing.T) {
	r, points := sweepGrid(t)
	results := r.Sweep(points, SweepOptions{})
	for i, p := range points {
		y, bound, err := r.Yield(p.PS, p.Dist)
		if err != nil {
			t.Fatalf("Yield(%d): %v", i, err)
		}
		if results[i].Err != nil {
			t.Fatalf("sweep point %d: %v", i, results[i].Err)
		}
		if results[i].Yield != y || results[i].ErrorBound != bound {
			t.Errorf("point %d: sweep %v±%v, serial %v±%v", i, results[i].Yield, results[i].ErrorBound, y, bound)
		}
	}
}

func TestSweepDefaultsAndErrors(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	r, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	// Empty sweep.
	if got := r.Sweep(nil, SweepOptions{}); len(got) != 0 {
		t.Errorf("empty sweep returned %d results", len(got))
	}
	// Each point's own distribution; missing distribution and invalid
	// PS reported per point.
	points := []SweepPoint{
		{PS: []float64{0.2, 0.15, 0.15}, Dist: dist},
		{PS: []float64{0.2, 0.15, 0.15}, Dist: defects.Poisson{Lambda: 1}},
		{PS: []float64{0.5}, Dist: dist},           // wrong length
		{PS: []float64{0.9, 0.9, 0.9}, Dist: dist}, // P_L > 1
		{PS: []float64{0.2, 0.15, 0.15}},           // no distribution
	}
	res := r.Sweep(points, SweepOptions{})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("valid points errored: %v, %v", res[0].Err, res[1].Err)
	}
	y0, _, _ := r.Yield(points[0].PS, dist)
	if res[0].Yield != y0 {
		t.Errorf("first point: %v, want %v", res[0].Yield, y0)
	}
	y1, _, _ := r.Yield(points[1].PS, defects.Poisson{Lambda: 1})
	if res[1].Yield != y1 {
		t.Errorf("second point: %v, want %v", res[1].Yield, y1)
	}
	if res[2].Err == nil || res[3].Err == nil {
		t.Errorf("invalid points accepted: %+v, %+v", res[2], res[3])
	}
	if res[4].Err == nil {
		t.Error("point with no distribution accepted")
	}
}

func TestLambdaGrid(t *testing.T) {
	ps := []float64{0.2, 0.15, 0.15}
	dists := []defects.Distribution{nb(1, 2), nb(2, 2), defects.Poisson{Lambda: 1}}
	points := LambdaGrid(ps, dists)
	if len(points) != len(dists) {
		t.Fatalf("%d points for %d dists", len(points), len(dists))
	}
	for i, p := range points {
		if &p.PS[0] != &ps[0] || p.Dist != dists[i] {
			t.Errorf("point %d not wired to inputs", i)
		}
	}
}

// TestReevaluatorConcurrentHammer drives one shared Reevaluator from 8
// goroutines mixing Yield, YieldRaw, Sensitivities and Sweep; run
// under -race this is the concurrency contract test for the yield
// layer. Every result is compared against the serial baseline.
func TestReevaluatorConcurrentHammer(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist := nb(2, 2)
	r, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatalf("NewReevaluator: %v", err)
	}
	type baseline struct {
		ps    []float64
		yield float64
		bound float64
		sens  []float64
	}
	grids := [][]float64{
		{0.2, 0.15, 0.15},
		{0.1, 0.1, 0.1},
		{0.3, 0.1, 0.05},
		{0.05, 0.25, 0.2},
	}
	bases := make([]baseline, len(grids))
	for i, ps := range grids {
		y, bound, err := r.Yield(ps, dist)
		if err != nil {
			t.Fatalf("baseline Yield(%v): %v", ps, err)
		}
		sens, err := r.Sensitivities(ps, dist, 0)
		if err != nil {
			t.Fatalf("baseline Sensitivities(%v): %v", ps, err)
		}
		bases[i] = baseline{ps: ps, yield: y, bound: bound, sens: sens}
	}
	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				b := bases[(g+it)%len(bases)]
				y, bound, err := r.Yield(b.ps, dist)
				if err != nil || y != b.yield || bound != b.bound {
					errs <- "Yield mismatch under concurrency"
					return
				}
				if it%5 == 0 {
					sens, err := r.Sensitivities(b.ps, dist, 0)
					if err != nil {
						errs <- "Sensitivities error under concurrency"
						return
					}
					for i := range sens {
						if math.Abs(sens[i]-b.sens[i]) != 0 {
							errs <- "Sensitivities mismatch under concurrency"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
