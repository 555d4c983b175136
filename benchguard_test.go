package socyield_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The bench guard runs the traced build workload of perfbench
// (perfbench/run.sh) guardRuns times and checks every run against the
// recorded baseline, one per-layer metric at a time, so a regression
// names its layer.
const (
	guardBaseline = "results/bench_baseline.json"
	guardRuns     = 3
	// guardBound is the tolerated fractional slowdown of a timed
	// metric: the best of the guard's runs fails above
	// (1+guardBound)× the recorded median.
	guardBound = 0.25
)

// guardCommand is the perfbench run the guard repeats: the build
// workload at seed 1 with a 2 s budget, through the traced runner.
var guardCommand = []string{"bash", "perfbench/run.sh", "--workload", "build", "--seed", "1", "--seconds", "2", "--trace", "1"}

// Guarded metrics. Timed ones cover the two dominant layers, the
// ROMDD freeze and the plain NewReevaluator build with nil Recorder,
// Tracer and BuildState, so the cost of the disabled instruments on
// the compile and convert hot loops stays guarded. Counts are the
// deterministic sizes of the pipeline (the coded ROBDD and ROMDD
// sizes are Table 4's) and must match exactly.
var (
	guardedTimes  = []string{"compile.s", "convert.s", "mdd.freeze_s", "build.untraced_s"}
	guardedCounts = []string{"compile.coded_robdd_nodes", "compile.peak_live_nodes", "bdd.nodes_created",
		"convert.peak_live_nodes", "mdd.romdd_nodes", "encode.g_gates"}
)

// benchBaseline is the part of results/bench_baseline.json the guard
// reads: the median and interquartile range of every metric of the
// guard's perfbench run over the recording runs. The file also records
// the command, run count, host, toolchain, commit and date.
type benchBaseline struct {
	Metrics map[string]baselineMetric `json:"metrics"`
}

type baselineMetric struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Unit   string  `json:"unit"`
}

// benchRun is perfbench's JSON result line.
type benchRun struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]runMetric `json:"metrics"`
}

type runMetric struct {
	Value float64 `json:"value"`
}

// guardFailures compares the guard's runs with the baseline and
// returns one message per failure, each naming its metric. A run fails
// when it is incorrect, failed an operation or lacks a guarded metric;
// a count fails when any run differs from the recorded median; a timed
// metric fails when the best run exceeds (1+guardBound)× the recorded
// median. A timed metric whose recorded IQR is not under guardBound of
// its median is too noisy to guard and fails the baseline itself.
func guardFailures(base benchBaseline, runs []benchRun) []string {
	var fails []string
	for i, r := range runs {
		if !r.Correct || r.Failed > 0 {
			fails = append(fails, fmt.Sprintf("run %d: correct=%v, %d of %d operations failed", i+1, r.Correct, r.Failed, r.Attempted))
		}
	}
	for _, name := range guardedCounts {
		want, ok := base.Metrics[name]
		if !ok || want.IQR != 0 {
			fails = append(fails, fmt.Sprintf("%s: baseline missing or not constant (%+v)", name, want))
			continue
		}
		for i, r := range runs {
			got, ok := r.Metrics[name]
			switch {
			case !ok:
				fails = append(fails, fmt.Sprintf("%s: missing from run %d", name, i+1))
			case got.Value != want.Median:
				fails = append(fails, fmt.Sprintf("%s: run %d read %.0f, baseline %.0f", name, i+1, got.Value, want.Median))
			}
		}
	}
	for _, name := range guardedTimes {
		want, ok := base.Metrics[name]
		if !ok || want.Median <= 0 || want.IQR >= guardBound*want.Median {
			fails = append(fails, fmt.Sprintf("%s: baseline missing or too noisy to guard (%+v)", name, want))
			continue
		}
		best, missing := 0.0, false
		for i, r := range runs {
			got, ok := r.Metrics[name]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: missing from run %d", name, i+1))
				missing = true
			} else if i == 0 || got.Value < best {
				best = got.Value
			}
		}
		if limit := (1 + guardBound) * want.Median; !missing && best > limit {
			fails = append(fails, fmt.Sprintf("%s: best of %d runs %.4g %s, more than %.0f%% over the %.4g %s median (limit %.4g)",
				name, len(runs), best, want.Unit, 100*guardBound, want.Median, want.Unit, limit))
		}
	}
	return fails
}

// parseBenchRun returns the JSON result line, the last line perfbench
// prints.
func parseBenchRun(out []byte) (benchRun, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r benchRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

func loadBaseline(t *testing.T) benchBaseline {
	t.Helper()
	data, err := os.ReadFile(guardBaseline)
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}
	return base
}

// TestBenchGuard is the benchmark-regression gate. It only runs when
// SOCYIELD_BENCH_GUARD=1: wall-clock assertions don't belong in the
// default `go test ./...`. A failure after a hardware change calls for
// re-recording the baseline (results/README.txt).
func TestBenchGuard(t *testing.T) {
	if os.Getenv("SOCYIELD_BENCH_GUARD") != "1" {
		t.Skip("set SOCYIELD_BENCH_GUARD=1 to run the per-layer build regression guard")
	}
	base := loadBaseline(t)
	var runs []benchRun
	for i := 0; i < guardRuns; i++ {
		cmd := exec.Command(guardCommand[0], guardCommand[1:]...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		// perfbench exits non-zero on a failed operation; the result
		// line still says which, so the exit status is reported only
		// when there is no result line.
		runErr := cmd.Run()
		r, err := parseBenchRun(stdout.Bytes())
		if err != nil {
			t.Fatalf("run %d: %v (exit: %v)\n%s", i+1, err, runErr, stdout.Bytes())
		}
		runs = append(runs, r)
	}
	for _, name := range append(guardedTimes, guardedCounts...) {
		vals := make([]string, len(runs))
		for i, r := range runs {
			vals[i] = fmt.Sprintf("%.7g", r.Metrics[name].Value)
		}
		t.Logf("%-26s %s (baseline median %.7g, IQR %.3g)", name, strings.Join(vals, " "),
			base.Metrics[name].Median, base.Metrics[name].IQR)
	}
	for _, f := range guardFailures(base, runs) {
		t.Error(f)
	}
}

// TestBenchGuardDecision checks the guard's comparison on synthetic
// runs built from the recorded baseline.
func TestBenchGuardDecision(t *testing.T) {
	base := loadBaseline(t)
	atMedian := func() benchRun {
		r := benchRun{Correct: true, Attempted: 1, Metrics: map[string]runMetric{}}
		for name, m := range base.Metrics {
			r.Metrics[name] = runMetric{m.Median}
		}
		return r
	}
	set := func(r benchRun, name string, v float64) benchRun {
		m := r.Metrics[name]
		m.Value = v
		r.Metrics[name] = m
		return r
	}
	cases := []struct {
		name string
		runs []benchRun
		want string // substring of the one expected failure; "" = pass
	}{
		{"baseline", []benchRun{atMedian(), atMedian(), atMedian()}, ""},
		{"one slow run", []benchRun{set(atMedian(), "compile.s", 2*base.Metrics["compile.s"].Median), atMedian()}, ""},
		{"compile 26% slower", []benchRun{set(atMedian(), "compile.s", 1.26*base.Metrics["compile.s"].Median)}, "compile.s"},
		{"ROMDD off by one", []benchRun{atMedian(), set(atMedian(), "mdd.romdd_nodes", base.Metrics["mdd.romdd_nodes"].Median+1)}, "mdd.romdd_nodes"},
		{"missing metric", []benchRun{func() benchRun { r := atMedian(); delete(r.Metrics, "convert.s"); return r }()}, "convert.s: missing"},
		{"incorrect", []benchRun{func() benchRun { r := atMedian(); r.Correct = false; return r }()}, "correct=false"},
		{"failed operation", []benchRun{func() benchRun { r := atMedian(); r.Failed = 1; return r }()}, "1 of 1 operations failed"},
	}
	for _, c := range cases {
		fails := guardFailures(base, c.runs)
		switch {
		case c.want == "" && len(fails) != 0:
			t.Errorf("%s: unexpected failures %q", c.name, fails)
		case c.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], c.want)):
			t.Errorf("%s: failures %q, want one naming %q", c.name, fails, c.want)
		}
	}
}
