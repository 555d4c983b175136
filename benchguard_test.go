package socyield_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"socyield"
	"socyield/internal/benchmarks"
)

// benchBaseline is the checked-in record the CI benchmark-regression
// job guards against (results/bench_baseline.json). BuildSeconds is
// the reference one-time ROMDD build time for the benchmark measured
// on the machine named in Machine; MaxRegression is the tolerated
// fractional slowdown before the guard fails (noise on shared runners
// stays well under it, a pathological compile-path regression does
// not). Refresh the file with the measurement printed by this test
// whenever the reference hardware changes or the build gets faster.
type benchBaseline struct {
	Benchmark     string  `json:"benchmark"`
	LambdaPrime   int     `json:"lambda_prime"`
	Epsilon       float64 `json:"epsilon"`
	BuildSeconds  float64 `json:"build_seconds"`
	MaxRegression float64 `json:"max_regression"`
	Machine       string  `json:"machine"`
	Recorded      string  `json:"recorded"`
}

// TestCompileBenchGuard is the benchmark-regression smoke gate: it
// rebuilds the baseline benchmark's ROMDD (best of two runs, so a cold
// first run doesn't trip it) and fails when the build takes more than
// (1+MaxRegression)× the checked-in reference. It only runs when
// SOCYIELD_BENCH_GUARD=1 — wall-clock assertions don't belong in the
// default `go test ./...`.
func TestCompileBenchGuard(t *testing.T) {
	if os.Getenv("SOCYIELD_BENCH_GUARD") != "1" {
		t.Skip("set SOCYIELD_BENCH_GUARD=1 to run the build-time regression guard")
	}
	data, err := os.ReadFile("results/bench_baseline.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	if base.BuildSeconds <= 0 || base.MaxRegression <= 0 {
		t.Fatalf("implausible baseline %+v", base)
	}
	sys, err := benchmarks.ByName(base.Benchmark)
	if err != nil {
		t.Fatalf("loading %s: %v", base.Benchmark, err)
	}
	dist, err := socyield.NewNegativeBinomial(2*float64(base.LambdaPrime), 3.4)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for run := 0; run < 2; run++ {
		t0 := time.Now()
		// The guarded build runs uninstrumented — nil Recorder, Tracer
		// and BuildState. Their nil-receiver no-op checks sit on the
		// compile and convert hot loops, so this guard also bounds the
		// cost of the disabled flight recorder: instrumentation that
		// slows the uninstrumented build trips it like any other
		// compile-path regression.
		re, err := socyield.NewReevaluator(sys, socyield.Options{
			Defects: dist, Epsilon: base.Epsilon,
			Recorder: nil, Tracer: nil, BuildState: nil,
		})
		sec := time.Since(t0).Seconds()
		if err != nil {
			t.Fatalf("building %s: %v", base.Benchmark, err)
		}
		if re.Result.Yield <= 0 || re.Result.Yield >= 1 {
			t.Fatalf("implausible yield %v", re.Result.Yield)
		}
		if run == 0 || sec < best {
			best = sec
		}
	}
	limit := base.BuildSeconds * (1 + base.MaxRegression)
	fmt.Printf("bench guard: %s build %.3fs (baseline %.3fs on %s, limit %.3fs)\n",
		base.Benchmark, best, base.BuildSeconds, base.Machine, limit)
	if best > limit {
		t.Errorf("%s build took %.3fs, more than %.0f%% over the %.3fs baseline — compile-path regression (or refresh results/bench_baseline.json after a hardware change)",
			base.Benchmark, best, 100*base.MaxRegression, base.BuildSeconds)
	}
}
