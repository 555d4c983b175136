package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// ManifestPath is where the benchmark's manifest lies, relative to the
// root of the checkout the benchmark runs from.
const ManifestPath = "BENCHMARK.json"

// ManifestMetric is one metric the manifest lists.
type ManifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Manifest is the part of BENCHMARK.json the runners check their
// result against.
type Manifest struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []ManifestMetric `json:"end_to_end"`
	PerLayer   []ManifestMetric `json:"per_layer"`
}

// LoadManifest reads the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Want returns the metrics a run must report: the end-to-end ones
// when untraced, the per-layer ones when traced.
func (m *Manifest) Want(trace bool) []ManifestMetric {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}

// Split divides a run's metrics into those the manifest lists for the
// run, which go into the result line, and the others, which are only
// printed. It reports an error when a listed metric is missing or in
// another unit.
func Split(got map[string]Metric, want []ManifestMetric) (listed, extra map[string]Metric, err error) {
	listed, extra = map[string]Metric{}, map[string]Metric{}
	var problems []string
	for _, w := range want {
		g, ok := got[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case g.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, want %q", w.Name, g.Unit, w.Unit))
		default:
			listed[w.Name] = g
		}
	}
	for name, g := range got {
		if _, ok := listed[name]; !ok {
			extra[name] = g
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, nil, fmt.Errorf("metrics differ from %s: %s", ManifestPath, strings.Join(problems, ", "))
	}
	return listed, extra, nil
}

// Emit prints a run's result: the machine, the metrics (those the
// manifest does not list for the run as printed only) and the result
// line. It reports whether the run was correct.
func (m *Manifest) Emit(w io.Writer, trace bool, tl *Tally, metrics map[string]Metric) (bool, error) {
	listed, extra, err := Split(metrics, m.Want(trace))
	if err != nil {
		return false, err
	}
	machine, err := json.Marshal(ThisMachine())
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "machine %s\n", machine)
	r := NewReport(tl, listed)
	return r.Correct, r.Write(w, extra)
}
