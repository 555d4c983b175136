// Command layers is the benchmark's traced runner: it runs one
// workload with a span around each call the benchmark makes into a
// layer of the program, reads the counters the layers expose, and
// prints the per-layer metrics BENCHMARK.json lists, along with the
// workload's other layer figures.
//
//	layers --workload build|serve --seed N --seconds S --trace 1
//
// The spans are written to .bench_build/spans-<workload>-<seed>.json.
// Unlike cmd/bench, it imports the program's internal packages, so a
// change to their signatures can break this runner alone.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"socyield/perfbench/harness"
)

func main() {
	a, err := harness.ParseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
	if !a.Trace {
		fmt.Fprintln(os.Stderr, "layers: the untraced run is cmd/bench")
		os.Exit(2)
	}
	man, err := harness.LoadManifest(harness.ManifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
	var tl harness.Tally
	sp := NewSpans()
	var metrics map[string]harness.Metric
	switch a.Workload {
	case "build":
		metrics, err = layersBuild(a, &tl, sp)
	case "serve":
		metrics, err = layersServe(a, &tl, sp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %s: %v\n", a.Workload, err)
		os.Exit(1)
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", a.Workload, a.Seed))
	if err := sp.Write(path); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Printf("spans %s\n", path)
	correct, err := man.Emit(os.Stdout, true, &tl, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
