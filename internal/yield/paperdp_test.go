package yield_test

import (
	"math"
	"os"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

// checkPaperCondVector builds bench under Table 4's model at λ′ = 1
// (NB(2, 3.4), ε = 2e-3, default orders) and checks the ROMDD route's
// split vector against the DP over F's own ROBDD, entry by entry, to
// 1e-12; the two yields must agree to the same bound.
func checkPaperCondVector(t *testing.T, bench string) {
	t.Helper()
	sys, err := benchmarks.ByName(bench)
	if err != nil {
		t.Fatalf("%s: %v", bench, err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	opts := yield.Options{Defects: dist, Epsilon: 2e-3}
	r, err := yield.NewReevaluator(sys, opts)
	if err != nil {
		t.Fatalf("%s: NewReevaluator: %v", bench, err)
	}
	cf, err := yield.NewCondFail(sys, opts)
	if err != nil {
		t.Fatalf("%s: NewCondFail: %v", bench, err)
	}
	pprime := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		pprime[i] = c.P / sys.PL()
	}
	g, s, err := r.CondVector(pprime)
	if err != nil {
		t.Fatalf("%s: condVector: %v", bench, err)
	}
	dp := cf.Vector(nil)
	if cf.M != r.M() {
		t.Fatalf("%s: DP M=%d, model M=%d", bench, cf.M, r.M())
	}
	for k, v := range dp {
		if d := math.Abs(g[k] + s - v); d > 1e-12 {
			t.Errorf("%s: 1 − Y_%d is %.17g on the ROMDD, %.17g by the DP", bench, k, g[k]+s, v)
		}
	}
	if y := cf.Yield(nil); math.Abs(y-r.Result.Yield) > 1e-12 {
		t.Errorf("%s: yield %.17g on the ROMDD, %.17g by the DP", bench, r.Result.Yield, y)
	}
	t.Logf("%s: M=%d, ROBDD(F) %d nodes, yield %.17g", bench, cf.M, cf.ROBDDSize, r.Result.Yield)
}

// TestCondVectorPaperBenchmarks is the exact check of the paper route
// on the benchmarks whose builds take about a second together.
func TestCondVectorPaperBenchmarks(t *testing.T) {
	for _, bench := range []string{"MS2", "MS4", "ESEN4x1", "ESEN4x2", "ESEN4x4"} {
		checkPaperCondVector(t, bench)
	}
}

// TestCondVectorPaperBenchmarksLarge runs the same check on ESEN8x2,
// MS6 and MS8, whose paper-route builds take about 15 s together. It
// runs with the bench guard (SOCYIELD_BENCH_GUARD=1).
func TestCondVectorPaperBenchmarksLarge(t *testing.T) {
	if os.Getenv("SOCYIELD_BENCH_GUARD") != "1" {
		t.Skip("set SOCYIELD_BENCH_GUARD=1 to check ESEN8x2, MS6 and MS8 against the DP")
	}
	for _, bench := range []string{"ESEN8x2", "MS6", "MS8"} {
		checkPaperCondVector(t, bench)
	}
}
