// Command bench is the benchmark's end-to-end runner: it runs one
// workload through the socyield facade and the yieldd HTTP handler,
// with tracing off, and prints the end-to-end metrics BENCHMARK.json
// lists.
//
//	bench --workload build|serve --seed N --seconds S --trace 0
//
// The last line of standard output is the JSON result; the exit code
// is non-zero when a correctness check fails.
package main

import (
	"fmt"
	"os"

	"socyield/perfbench/e2e"
	"socyield/perfbench/harness"
)

func main() {
	a, err := harness.ParseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if a.Trace {
		fmt.Fprintln(os.Stderr, "bench: the traced run is cmd/layers")
		os.Exit(2)
	}
	man, err := harness.LoadManifest(harness.ManifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var tl harness.Tally
	var metrics map[string]harness.Metric
	switch a.Workload {
	case "build":
		metrics, err = e2e.RunBuild(a, &tl)
	case "serve":
		metrics, err = e2e.RunServe(a, &tl, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", a.Workload, err)
		os.Exit(1)
	}
	correct, err := man.Emit(os.Stdout, false, &tl, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
