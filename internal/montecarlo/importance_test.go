package montecarlo

import (
	"io"
	"math"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// TestImportanceSharpensNearCertainYield is the acceptance criterion of
// the rare-event engine: on a seeded near-certain-yield case the
// importance-sampling CI half-width must be at least 10× smaller than
// naive Monte Carlo's at the exact same sample budget, while both the
// combinatorial value stays inside the IS 3σ interval and the estimate
// is bit-identical for every worker count.
func TestImportanceSharpensNearCertainYield(t *testing.T) {
	sys, err := benchmarks.MS(3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 100000
	comb, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 1e-9})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	naive, err := Estimate(sys, Options{Defects: dist, Samples: samples, Seed: 20030622})
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	is, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 20030622, Workers: 1})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if is.Degenerate {
		t.Fatal("IS run degenerate on the target case")
	}
	// Equal budget, ≥ 10× tighter: compare CI half-widths at 3σ. When
	// the naive sample is degenerate its normal CI is a vacuous point,
	// so its honest half-width is the Wilson interval's instead.
	naiveHW := naive.CI(3)
	if naive.Degenerate {
		lo, hi := naive.Wilson(3)
		naiveHW = (hi - lo) / 2
	}
	if ratio := naiveHW / is.CI(3); ratio < 10 {
		t.Errorf("IS CI half-width %.3g only %.1f× tighter than naive %.3g, want ≥ 10×", is.CI(3), ratio, naiveHW)
	}
	if d := math.Abs(is.Yield - comb.Yield); d > is.CI(3)+comb.ErrorBound {
		t.Errorf("combinatorial %.10f outside IS 3σ interval %.10f ± %.3g", comb.Yield, is.Yield, is.CI(3))
	}
	for _, workers := range []int{2, 4} {
		got, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 20030622, Workers: workers})
		if err != nil {
			t.Fatalf("EstimateIS(workers=%d): %v", workers, err)
		}
		if got != is {
			t.Errorf("workers=%d: %+v differs from workers=1: %+v", workers, got, is)
		}
	}
}

// TestImportanceWorkerCountInvariant extends the parallel-determinism
// contract to the two-phase IS run: pilot tallies, tilt selection and
// tilted moments must all be scheduling-free, so every Result field —
// including StdErr, ESS and Tilt — is bit-identical across worker
// counts, default included.
func TestImportanceWorkerCountInvariant(t *testing.T) {
	sys := tmr(0.12)
	dist, err := defects.NewNegativeBinomial(0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 50000 // > 12 chunks of 4096
	base, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 99, Workers: 1})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatalf("EstimateIS(workers=%d): %v", workers, err)
		}
		if got != base {
			t.Errorf("workers=%d: %+v, workers=1: %+v", workers, got, base)
		}
	}
	got, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 99})
	if err != nil {
		t.Fatalf("EstimateIS(default workers): %v", err)
	}
	if got != base {
		t.Errorf("default workers: %+v, workers=1: %+v", got, base)
	}
}

func TestImportanceSeedDeterminism(t *testing.T) {
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 0.3}
	a, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	b, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if a != b {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	c, _ := EstimateIS(sys, ISOptions{Defects: dist, Samples: 20000, Seed: 8})
	if a.FailProb == c.FailProb {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// TestImportanceFixedTilt pins the TiltSet path: the pilot is skipped
// (the whole budget goes to the tilted run), the requested θ is echoed,
// and the estimate agrees with the adaptive run within combined 5σ.
func TestImportanceFixedTilt(t *testing.T) {
	sys := tmr(0.15)
	dist, err := defects.NewNegativeBinomial(0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 80000, Seed: 5})
	if err != nil {
		t.Fatalf("adaptive EstimateIS: %v", err)
	}
	fixed, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 80000, Seed: 5, Tilt: 2.5, TiltSet: true})
	if err != nil {
		t.Fatalf("fixed EstimateIS: %v", err)
	}
	if fixed.PilotSamples != 0 {
		t.Errorf("fixed tilt ran a pilot of %d samples", fixed.PilotSamples)
	}
	if fixed.Tilt != 2.5 {
		t.Errorf("Tilt = %v, want the requested 2.5", fixed.Tilt)
	}
	if adaptive.PilotSamples == 0 {
		t.Error("adaptive run skipped the pilot")
	}
	sigma := 5 * math.Hypot(adaptive.StdErr, fixed.StdErr)
	if d := math.Abs(adaptive.FailProb - fixed.FailProb); d > sigma {
		t.Errorf("adaptive %.4g vs fixed-tilt %.4g: diff %.3g > 5σ = %.3g",
			adaptive.FailProb, fixed.FailProb, d, sigma)
	}
}

// TestImportanceUnbiasedAcrossTilts: the likelihood-ratio identity
// makes the estimator unbiased for every θ, so wildly different fixed
// tilts must agree with each other within their own error bars.
func TestImportanceUnbiasedAcrossTilts(t *testing.T) {
	sys := tmr(0.2)
	dist := defects.Poisson{Lambda: 0.8}
	var results []ISResult
	for _, tilt := range []float64{0, 1, 3} {
		r, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 120000, Seed: 31, Tilt: tilt, TiltSet: true})
		if err != nil {
			t.Fatalf("EstimateIS(tilt=%v): %v", tilt, err)
		}
		if r.Degenerate {
			t.Fatalf("tilt=%v: degenerate run", tilt)
		}
		results = append(results, r)
	}
	for i, a := range results {
		for _, b := range results[i+1:] {
			sigma := 5 * math.Hypot(a.StdErr, b.StdErr)
			if d := math.Abs(a.FailProb - b.FailProb); d > sigma {
				t.Errorf("tilt %v vs %v: %.4g vs %.4g, diff %.3g > 5σ = %.3g",
					a.Tilt, b.Tilt, a.FailProb, b.FailProb, d, sigma)
			}
		}
	}
}

// TestImportanceDegenerate covers the flagged early-outs: a system
// whose failure probability is below float64 resolution, and a tilted
// run that sees no failure.
func TestImportanceDegenerate(t *testing.T) {
	sys := tmr(0.1)
	tiny := defects.Poisson{Lambda: 1e-16}
	r, err := EstimateIS(sys, ISOptions{Defects: tiny, Samples: 1000, Seed: 1})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if !r.Degenerate || r.Yield != 1 {
		t.Errorf("sub-resolution failure: %+v, want Yield 1 and Degenerate", r)
	}
	// An untilted (θ = 0) run at a tiny budget on a rare-failure case
	// sees no failing die: the result must say so rather than return a
	// silently vacuous FailProb = 0 ± 0.
	r, err = EstimateIS(sys, ISOptions{Defects: defects.Poisson{Lambda: 0.001}, Samples: 2000, Seed: 1, TiltSet: true})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if !r.Degenerate {
		t.Errorf("no-failure tilted run not flagged: %+v", r)
	}
	if !math.IsInf(r.RelErr, 1) {
		t.Errorf("RelErr = %v, want +Inf on a degenerate run", r.RelErr)
	}
}

// TestImportanceZeroFailurePilot exercises the fallback tilt: with a
// pilot too small to see any failure, θ comes from the tilted-mean
// bisection and must still produce a sound estimate (checked against
// the combinatorial value).
func TestImportanceZeroFailurePilot(t *testing.T) {
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 0.02}
	comb, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 1e-10})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	is, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 60000, Seed: 12, PilotSamples: 256})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if is.Tilt <= 0 {
		t.Errorf("fallback tilt %v, want > 0", is.Tilt)
	}
	if is.Degenerate {
		t.Fatal("fallback run degenerate")
	}
	if d := math.Abs(is.Yield - comb.Yield); d > is.CI(5)+comb.ErrorBound {
		t.Errorf("combinatorial %.10f outside IS 5σ interval %.10f ± %.3g", comb.Yield, is.Yield, is.CI(5))
	}
}

func TestImportanceValidation(t *testing.T) {
	sys := tmr(0.1)
	dist := defects.Poisson{Lambda: 1}
	if _, err := EstimateIS(sys, ISOptions{Samples: 100}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 100, PilotSamples: -1}); err == nil {
		t.Error("negative pilot accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 100, PilotSamples: 100}); err == nil {
		t.Error("pilot ≥ budget accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 100, Tilt: -1, TiltSet: true}); err == nil {
		t.Error("negative tilt accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 100, Tilt: math.Inf(1), TiltSet: true}); err == nil {
		t.Error("infinite tilt accepted")
	}
	bad := tmr(-0.1)
	if _, err := EstimateIS(bad, ISOptions{Defects: dist, Samples: 100}); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: defects.Poisson{Lambda: 1e5}, Samples: 100}); err == nil {
		t.Error("heavy-tail cap violation not reported")
	}
}

// TestImportanceRecorder checks the IS instrumentation: chunk/sample
// counters across both phases, the tilt/ESS/relative-error gauges, the
// progress hook, and that recording does not perturb the estimate.
func TestImportanceRecorder(t *testing.T) {
	sys := tmr(0.15)
	dist, err := defects.NewNegativeBinomial(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 20000
	plain, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: samples, Seed: 7})
	if err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	rec := obs.NewRegistry()
	meter := obs.NewProgress(io.Discard, "is", samples, 0)
	instr, err := EstimateIS(sys, ISOptions{
		Defects: dist, Samples: samples, Seed: 7, Workers: 2,
		Recorder: rec, Progress: meter,
	})
	meter.Close()
	if err != nil {
		t.Fatalf("instrumented EstimateIS: %v", err)
	}
	if instr != plain {
		t.Errorf("recorder changed the estimate: %+v vs %+v", instr, plain)
	}
	snap := rec.Snapshot()
	if snap.Counters["mc.is.samples"] != samples {
		t.Errorf("mc.is.samples = %d, want %d", snap.Counters["mc.is.samples"], samples)
	}
	pilotChunks := (plain.PilotSamples + 4095) / 4096
	mainChunks := (samples - plain.PilotSamples + 4095) / 4096
	if want := int64(pilotChunks + mainChunks); snap.Counters["mc.is.chunks"] != want {
		t.Errorf("mc.is.chunks = %d, want %d", snap.Counters["mc.is.chunks"], want)
	}
	if meter.Done() != samples {
		t.Errorf("progress advanced %d dies, want %d", meter.Done(), samples)
	}
	if snap.FloatGauges["mc.tilt"] != instr.Tilt {
		t.Errorf("mc.tilt = %v, want %v", snap.FloatGauges["mc.tilt"], instr.Tilt)
	}
	if snap.FloatGauges["mc.ess"] != instr.ESS {
		t.Errorf("mc.ess = %v, want %v", snap.FloatGauges["mc.ess"], instr.ESS)
	}
	if snap.FloatGauges["mc.rel_err"] != instr.RelErr {
		t.Errorf("mc.rel_err = %v, want %v", snap.FloatGauges["mc.rel_err"], instr.RelErr)
	}
	if instr.ESS <= 0 || instr.ESS > float64(samples) {
		t.Errorf("ESS = %v outside (0, %d]", instr.ESS, samples)
	}
}

// TestImportanceWorkersGaugeClamped checks that mc.is.workers reports
// the workers the run starts, as mc.workers does, not the requested
// count: a 100-sample run is one chunk per phase, so one worker.
func TestImportanceWorkersGaugeClamped(t *testing.T) {
	sys := tmr(0.15)
	dist, err := defects.NewNegativeBinomial(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	isRec, mcRec := obs.NewRegistry(), obs.NewRegistry()
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 100, Seed: 7, Workers: 8, Recorder: isRec}); err != nil {
		t.Fatalf("EstimateIS: %v", err)
	}
	if _, err := Estimate(sys, Options{Defects: dist, Samples: 100, Seed: 7, Workers: 8, Recorder: mcRec}); err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	is, mc := isRec.Snapshot().Gauges["mc.is.workers"], mcRec.Snapshot().Gauges["mc.workers"]
	if is != 1 || mc != 1 {
		t.Errorf("mc.is.workers = %d, mc.workers = %d, want 1 and 1", is, mc)
	}
}

// TestImportanceLethalitiesRoundedAboveOne: lethalities 0.33, 0.56 and
// 0.11 sum to 1.0000000000000002 in float64; both estimators take that
// as P_L = 1 and run.
func TestImportanceLethalitiesRoundedAboveOne(t *testing.T) {
	sys := tmr(0.1)
	for i, p := range []float64{0.33, 0.56, 0.11} {
		sys.Components[i].P = p
	}
	dist := defects.Poisson{Lambda: 0.3}
	if _, err := Estimate(sys, Options{Defects: dist, Samples: 2000, Seed: 1}); err != nil {
		t.Errorf("Estimate: %v", err)
	}
	if _, err := EstimateIS(sys, ISOptions{Defects: dist, Samples: 2000, Seed: 1}); err != nil {
		t.Errorf("EstimateIS: %v", err)
	}
}
