package montecarlo

import (
	"fmt"
	"io"
	"math"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

func tmr(p float64) *yield.System {
	f := logic.New()
	a, b, c := f.Input("a"), f.Input("b"), f.Input("c")
	f.SetOutput(f.Or(f.And(a, b), f.And(a, c), f.And(b, c)))
	return &yield.System{
		Name:       "tmr",
		Components: []yield.Component{{Name: "a", P: p}, {Name: "b", P: p}, {Name: "c", P: p}},
		FaultTree:  f,
	}
}

func TestEstimateMatchesCombinatorial(t *testing.T) {
	sys := tmr(0.15)
	dist, _ := defects.NewNegativeBinomial(2, 2)
	exact, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 1e-7})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	est, err := Estimate(sys, Options{Defects: dist, Samples: 200000, Seed: 42})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	// 5 standard errors ≈ 1-in-3.5M false-failure rate.
	if diff := math.Abs(est.Yield - exact.Yield); diff > 5*est.StdErr+1e-7 {
		t.Errorf("MC %v vs exact %v: diff %v > 5σ = %v", est.Yield, exact.Yield, diff, 5*est.StdErr)
	}
	if est.Samples != 200000 {
		t.Errorf("Samples = %d", est.Samples)
	}
	if est.CI(1.96) <= 0 {
		t.Errorf("CI = %v", est.CI(1.96))
	}
}

func TestEstimateDeterministicSeed(t *testing.T) {
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 1}
	a, err := Estimate(sys, Options{Defects: dist, Samples: 5000, Seed: 7})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	b, err := Estimate(sys, Options{Defects: dist, Samples: 5000, Seed: 7})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if a.Yield != b.Yield {
		t.Errorf("same seed, different results: %v vs %v", a.Yield, b.Yield)
	}
	c, _ := Estimate(sys, Options{Defects: dist, Samples: 5000, Seed: 8})
	if a.Yield == c.Yield {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// TestEstimateWorkerCountInvariant is the parallel-determinism
// contract: for a fixed seed the estimate is bit-identical whatever
// the worker count, because PRNG streams are assigned per fixed-size
// chunk, never per goroutine. The sample count spans many chunks so
// chunk scheduling genuinely interleaves.
func TestEstimateWorkerCountInvariant(t *testing.T) {
	sys := tmr(0.12)
	dist, _ := defects.NewNegativeBinomial(2, 1)
	const samples = 50000 // > 12 chunks of 4096
	base, err := Estimate(sys, Options{Defects: dist, Samples: samples, Seed: 99, Workers: 1})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Estimate(sys, Options{Defects: dist, Samples: samples, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatalf("Estimate(workers=%d): %v", workers, err)
		}
		if got.Yield != base.Yield || got.StdErr != base.StdErr {
			t.Errorf("workers=%d: %v±%v, workers=1: %v±%v",
				workers, got.Yield, got.StdErr, base.Yield, base.StdErr)
		}
	}
	// Default worker count (GOMAXPROCS) must agree too.
	got, err := Estimate(sys, Options{Defects: dist, Samples: samples, Seed: 99})
	if err != nil {
		t.Fatalf("Estimate(default workers): %v", err)
	}
	if got.Yield != base.Yield {
		t.Errorf("default workers: %v, workers=1: %v", got.Yield, base.Yield)
	}
}

func TestEstimateSeriesClosedForm(t *testing.T) {
	// Series system: yield = P(no lethal defect) = Q'_0.
	f := logic.New()
	f.SetOutput(f.Or(f.Input("a"), f.Input("b")))
	sys := &yield.System{
		Name:       "series",
		Components: []yield.Component{{Name: "a", P: 0.3}, {Name: "b", P: 0.2}},
		FaultTree:  f,
	}
	dist := defects.Poisson{Lambda: 1}
	lethal, _ := defects.Thin(dist, 0.5)
	want := lethal.PMF(0) // e^-0.5
	est, err := Estimate(sys, Options{Defects: dist, Samples: 300000, Seed: 1})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if diff := math.Abs(est.Yield - want); diff > 5*est.StdErr {
		t.Errorf("MC %v vs closed form %v (5σ = %v)", est.Yield, want, 5*est.StdErr)
	}
}

func TestEstimateValidation(t *testing.T) {
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 1}
	if _, err := Estimate(sys, Options{Samples: 100}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := Estimate(sys, Options{Defects: dist}); err == nil {
		t.Error("zero samples accepted")
	}
	bad := tmr(-0.1)
	if _, err := Estimate(bad, Options{Defects: dist, Samples: 100}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestEstimateHeavyTailGuard(t *testing.T) {
	// All of the law's mass lies past maxDefectsPerDie.
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 1e5}
	if _, err := Estimate(sys, Options{Defects: dist, Samples: 100, Seed: 3}); err == nil {
		t.Error("per-die cap violation not reported")
	}
}

func TestEstimateLargerSystem(t *testing.T) {
	// A 2-of-8 threshold system against the combinatorial method.
	f := logic.New()
	ids := make([]logic.GateID, 8)
	comps := make([]yield.Component, 8)
	for i := range ids {
		ids[i] = f.Input(fmt.Sprintf("c%d", i))
		comps[i] = yield.Component{Name: fmt.Sprintf("c%d", i), P: 0.05}
	}
	f.SetOutput(f.AtLeast(3, ids...))
	sys := &yield.System{Name: "k3of8", Components: comps, FaultTree: f}
	dist, _ := defects.NewNegativeBinomial(3, 1)
	exact, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 1e-7})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	est, err := Estimate(sys, Options{Defects: dist, Samples: 100000, Seed: 11})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if diff := math.Abs(est.Yield - exact.Yield); diff > 5*est.StdErr+1e-7 {
		t.Errorf("MC %v vs exact %v: diff %v", est.Yield, exact.Yield, diff)
	}
}

// TestEstimateDegenerateSample pins the degenerate-sample contract:
// an all-pass (or all-fail) sample has zero binomial variance, so the
// normal CI is vacuously tight — the Result must say so, and the
// Wilson interval must stay informative where the normal one
// collapses.
func TestEstimateDegenerateSample(t *testing.T) {
	sys := tmr(0.1)
	// λ small enough that 2000 dies almost surely all pass.
	est, err := Estimate(sys, Options{Defects: defects.Poisson{Lambda: 1e-4}, Samples: 2000, Seed: 20030622})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if est.Yield != 1 {
		t.Skipf("seed produced a failing die (yield %v); case no longer degenerate", est.Yield)
	}
	if !est.Degenerate {
		t.Error("all-pass sample not flagged Degenerate")
	}
	if est.CI(3) != 0 {
		t.Errorf("normal CI = %v on an all-pass sample, expected the vacuous 0", est.CI(3))
	}
	lo, hi := est.Wilson(3)
	if hi != 1 {
		t.Errorf("Wilson upper = %v at p̂ = 1, want 1", hi)
	}
	// At p̂ = 1 the Wilson lower bound is n/(n+z²) — the rule-of-three
	// analogue: ~9/n of failure probability cannot be excluded.
	want := 2000.0 / (2000.0 + 9.0)
	if math.Abs(lo-want) > 1e-12 {
		t.Errorf("Wilson lower = %v, want n/(n+z²) = %v", lo, want)
	}
	// A mid-yield sample must not be flagged.
	mid, err := Estimate(sys, Options{Defects: defects.Poisson{Lambda: 2}, Samples: 2000, Seed: 20030622})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if mid.Degenerate {
		t.Errorf("mid-yield sample (yield %v) flagged Degenerate", mid.Yield)
	}
	wlo, whi := mid.Wilson(3)
	nlo, nhi := mid.Yield-mid.CI(3), mid.Yield+mid.CI(3)
	if wlo >= mid.Yield || whi <= mid.Yield {
		t.Errorf("Wilson [%v, %v] does not contain the point estimate %v", wlo, whi, mid.Yield)
	}
	// Wilson and normal intervals agree to first order away from the
	// boundary.
	if math.Abs(wlo-nlo) > 3*mid.StdErr || math.Abs(whi-nhi) > 3*mid.StdErr {
		t.Errorf("Wilson [%v, %v] far from normal [%v, %v]", wlo, whi, nlo, nhi)
	}
}

// TestEstimateRecorder checks the simulation instrumentation: chunk
// and sample counters, determinism under a recorder, and the progress
// hook advancing by the dies of each chunk.
func TestEstimateRecorder(t *testing.T) {
	sys := tmr(0.15)
	dist, _ := defects.NewNegativeBinomial(2, 2)
	const samples = 10000 // 3 chunks of 4096
	plain, err := Estimate(sys, Options{Defects: dist, Samples: samples, Seed: 7})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	rec := obs.NewRegistry()
	meter := obs.NewProgress(io.Discard, "mc", samples, 0)
	instr, err := Estimate(sys, Options{
		Defects: dist, Samples: samples, Seed: 7, Workers: 2,
		Recorder: rec, Progress: meter,
	})
	meter.Close()
	if err != nil {
		t.Fatalf("instrumented Estimate: %v", err)
	}
	if instr.Yield != plain.Yield {
		t.Errorf("recorder changed the estimate: %v vs %v", instr.Yield, plain.Yield)
	}
	snap := rec.Snapshot()
	wantChunks := int64((samples + 4095) / 4096)
	if snap.Counters["mc.chunks"] != wantChunks {
		t.Errorf("mc.chunks = %d, want %d", snap.Counters["mc.chunks"], wantChunks)
	}
	if snap.Counters["mc.samples"] != samples {
		t.Errorf("mc.samples = %d, want %d", snap.Counters["mc.samples"], samples)
	}
	if meter.Done() != samples {
		t.Errorf("progress advanced %d dies, want %d", meter.Done(), samples)
	}
	if snap.FloatGauges["mc.samples_per_sec"] <= 0 {
		t.Error("mc.samples_per_sec not positive")
	}
}
