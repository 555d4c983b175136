package ftdsl

import (
	"strings"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/yield"
)

// FuzzPipeline drives every accepted ftdsl system through the full
// combinatorial pipeline — parse, encode G, order, compile the coded
// ROBDD, convert to the ROMDD, traverse — and checks the method's
// invariants on whatever the fuzzer constructs: no panics anywhere,
// Y_M ∈ [0, 1], and the truncation error bound within the requested ε.
//
// The corpus seeds cover the gate vocabulary (and/or/not/xor/atleast,
// constants, named defines) and systems where components share
// sub-expressions; the system size is capped so one fuzz iteration
// stays cheap.
func FuzzPipeline(f *testing.F) {
	f.Add(tmrSrc, 1.5, 2.0, 5e-3)
	f.Add("system x\ncomponent a 0.1\ncomponent b 0.2\nfails = or(a, b)\n", 0.5, 0.25, 1e-2)
	f.Add("component a 0.1\ncomponent b 0.1\ndefine d = not(a)\nfails = and(d, b)\n", 2.0, 1.0, 1e-3)
	f.Add("component a 0.2\ncomponent b 0.2\ncomponent c 0.2\nfails = xor(a, xor(b, c))\n", 1.0, 3.4, 5e-3)
	f.Add("component a 0.3\nfails = or(a, false)\n", 4.0, 2.0, 5e-2)
	f.Add("component a 0.1\ncomponent b 0.1\ncomponent c 0.1\ncomponent d 0.1\n"+
		"define m = atleast(2, a, b, c)\nfails = and(m, not(d))\n", 1.0, 0.5, 1e-2)
	f.Fuzz(func(t *testing.T, src string, lambda, alpha, eps float64) {
		sys, err := Parse(src)
		if err != nil {
			return
		}
		// Cap the work per iteration: the pipeline is exponential in
		// the worst case, and the fuzzer will happily build huge
		// systems. Rejections are not failures.
		if len(sys.Components) > 10 || sys.FaultTree.NumGates() > 64 {
			return
		}
		dist, err := defects.NewNegativeBinomial(lambda, alpha)
		if err != nil {
			return
		}
		if !(eps > 1e-9 && eps < 1) {
			return
		}
		opts := yield.Options{Defects: dist, Epsilon: eps, NodeLimit: 1 << 18}
		res, err := yield.Evaluate(sys, opts)
		if err != nil {
			// Invalid models (e.g. P_L > 1 after parsing) and blown
			// node budgets must be reported as errors, never panics.
			return
		}
		if !(res.Yield >= 0 && res.Yield <= 1) {
			t.Fatalf("yield %v outside [0,1]\nλ=%g α=%g ε=%g\nsource:\n%s", res.Yield, lambda, alpha, eps, src)
		}
		if !(res.ErrorBound >= 0 && res.ErrorBound <= eps) {
			t.Fatalf("error bound %v outside [0, ε=%g]\nλ=%g α=%g\nsource:\n%s", res.ErrorBound, eps, lambda, alpha, src)
		}
		if res.Yield+res.ErrorBound > 1+1e-12 {
			t.Fatalf("upper bound %v exceeds 1\nsource:\n%s", res.Yield+res.ErrorBound, src)
		}
		// Every accepted system also cross-checks against the exact
		// DP over the fault tree's own ROBDD.
		bf, err := yield.BruteForce(sys, opts)
		if err != nil {
			t.Fatalf("BruteForce rejected what Evaluate accepted: %v\nsource:\n%s", err, src)
		}
		if diff := res.Yield - bf.Yield; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pipeline %v vs exact DP %v (diff %g)\nsource:\n%s", res.Yield, bf.Yield, diff, src)
		}
	})
}

// TestFuzzPipelineSeeds runs the pipeline fuzz body over a few
// deterministic extra inputs so `go test` (without -fuzz) still
// exercises the full-pipeline property, including gate-heavy sources.
func TestFuzzPipelineSeeds(t *testing.T) {
	srcs := []string{
		tmrSrc,
		"component a 0.1\ncomponent b 0.1\ncomponent c 0.1\nfails = atleast(2, a, b, not(c))\n",
		"component a 0.05\ncomponent b 0.05\n" + strings.Repeat("define z = or(a, b)\n", 1) + "fails = xor(z, and(a, b))\n",
	}
	for _, src := range srcs {
		sys, err := Parse(src)
		if err != nil {
			t.Fatalf("seed did not parse: %v\n%s", err, src)
		}
		dist, err := defects.NewNegativeBinomial(1.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 1e-3})
		if err != nil {
			t.Fatalf("seed did not evaluate: %v\n%s", err, src)
		}
		if !(res.Yield >= 0 && res.Yield <= 1) || res.ErrorBound > 1e-3 {
			t.Fatalf("seed invariants violated: Y=%v bound=%v\n%s", res.Yield, res.ErrorBound, src)
		}
	}
}
