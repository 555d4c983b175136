// Package harness holds the parts of the benchmark that know nothing
// about the program under test: argument parsing, the result line,
// operation counting, percentile rules, the open-loop schedule and the
// request-class plan of the serve workload. It imports only the
// standard library, so both runners (the end-to-end one and the traced
// one) share it whatever happens to the program's internals.
package harness

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
)

// Workloads lists the workload names the benchmark accepts.
var Workloads = []string{"build", "serve"}

// Args are the command-line arguments every benchmark run receives.
type Args struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
}

// ParseArgs parses --workload, --seed, --seconds and --trace.
func ParseArgs(argv []string) (Args, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var a Args
	var trace int
	fs.StringVar(&a.Workload, "workload", "", "workload name")
	fs.Uint64Var(&a.Seed, "seed", 1, "input seed")
	fs.IntVar(&a.Seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 selects the traced per-layer run")
	if err := fs.Parse(argv); err != nil {
		return a, err
	}
	if fs.NArg() > 0 {
		return a, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range Workloads {
		known = known || w == a.Workload
	}
	if !known {
		return a, fmt.Errorf("unknown workload %q (want one of %s)", a.Workload, strings.Join(Workloads, ", "))
	}
	if a.Seconds < 1 {
		return a, fmt.Errorf("--seconds %d must be ≥ 1", a.Seconds)
	}
	if trace != 0 && trace != 1 {
		return a, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	a.Trace = trace == 1
	return a, nil
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Tally counts operations attempted and failed. An operation fails
// when it errors, is refused, or returns a wrong answer. Safe for
// concurrent use.
type Tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// Check records one attempted operation, failed unless ok.
func (t *Tally) Check(ok bool) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
	return ok
}

// Attempted returns the number of operations recorded.
func (t *Tally) Attempted() int64 { return t.attempted.Load() }

// Failed returns the number of failed operations recorded.
func (t *Tally) Failed() int64 { return t.failed.Load() }

// Report is the benchmark's result line.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// NewReport returns a report over the tally's counts; it is correct
// only when at least one operation ran and none failed.
func NewReport(t *Tally, metrics map[string]Metric) Report {
	return Report{
		Correct:   t.Attempted() > 0 && t.Failed() == 0,
		Attempted: t.Attempted(),
		Failed:    t.Failed(),
		Metrics:   metrics,
	}
}

// Write prints one "name value unit" line per metric, name-sorted:
// first the extra metrics, marked as printed only, then the report's.
// Then it prints failed_share and the report as the final JSON line.
// failed_share stays out of the JSON metrics: it is 0 on a correct
// run, and the result line carries failed and attempted anyway.
func (r Report) Write(w io.Writer, extra map[string]Metric) error {
	for _, set := range []struct {
		metrics map[string]Metric
		note    string
	}{{extra, " (printed only)"}, {r.Metrics, ""}} {
		names := make([]string, 0, len(set.metrics))
		for n := range set.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set.metrics[n]
			fmt.Fprintf(w, "%-36s %14.6g %s%s\n", n, m.Value, m.Unit, set.note)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g ratio (%d of %d operations)\n", "failed_share", share, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Machine describes where a result was measured.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// ThisMachine describes the current process. The commit comes from
// PERFBENCH_COMMIT, which run.sh sets from git when the checkout is a
// repository; it is "unknown" otherwise.
func ThisMachine() Machine {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
}

// PinSerialBuild sets the integer field BuildWorkers of the struct ptr
// points to to 1, the serial build engine, and reports whether the
// field exists. The field is found by reflection so the benchmark keeps
// compiling, and keeps measuring the serial engine, whether or not the
// program still has the knob.
func PinSerialBuild(ptr any) bool {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	f := v.Elem().FieldByName("BuildWorkers")
	if !f.IsValid() || !f.CanSet() {
		return false
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
		return true
	}
	return false
}

// Median returns the median of xs (NaN when empty). xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// GeoMean returns the geometric mean of xs, which must be positive
// (NaN when xs is empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// MedianSpread estimates, from the samples xs of one run, the
// interquartile range that their median would show over repeated runs,
// as a share of the median. A sample median of n draws has a standard
// deviation of about 1/(2·f·√n), where f is the density at the median;
// f is taken as the mean density of the middle half, 0.5/(q75 − q25).
// The interquartile range of a normal variable is 1.349 standard
// deviations, so the estimate is 1.349·(q75 − q25)/(median·√n).
func MedianSpread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(p float64) float64 { return s[int(p*float64(n-1)+0.5)] }
	return 1.349 * (q(0.75) - q(0.25)) / (Median(s) * math.Sqrt(float64(n)))
}

// MinBeyond is the number of samples a reported tail percentile must
// have beyond it.
const MinBeyond = 10

// ErrTooFewSamples is returned by Tail when not even the median-side
// sample has MinBeyond samples beyond it.
var ErrTooFewSamples = errors.New("harness: fewer than MinBeyond+1 samples")

// TailStat is a tail percentile as reported: the value, the percentile
// actually used and the sample count.
type TailStat struct {
	Value      float64
	Percentile float64
	N          int
}

// Tail returns the want-th percentile of xs (nearest rank), lowered
// when needed to the highest percentile that still has at least
// MinBeyond samples beyond it.
func Tail(xs []float64, want float64) (TailStat, error) {
	n := len(xs)
	if n <= MinBeyond {
		return TailStat{N: n}, ErrTooFewSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank: the smallest index i with (i+1)/n ≥ want/100.
	i := int(math.Ceil(want/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if maxI := n - 1 - MinBeyond; i > maxI {
		i = maxI
	}
	return TailStat{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), N: n}, nil
}
