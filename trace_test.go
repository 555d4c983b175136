package socyield_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"socyield"
)

// TestFlightRecorderESENTrace runs the flight recorder over a real
// ESEN8x2 build and checks the Chrome trace export carries the
// pipeline's phase spans, the per-gate build track and sampled counter
// series — the Perfetto-loadable artifact -trace-out produces.
func TestFlightRecorderESENTrace(t *testing.T) {
	sys, err := socyield.ESEN(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := socyield.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}

	rec := socyield.NewMetrics()
	tracer := socyield.NewTracer(0)
	sampler := socyield.NewSampler(rec, time.Millisecond, 0)
	sampler.Start()
	// ε = 2e-2 keeps the truncation point small enough for a test while
	// still exercising the full multi-phase build.
	_, err = socyield.Evaluate(sys, socyield.Options{
		Defects: dist, Epsilon: 2e-2,
		Recorder: rec,
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	sampler.Stop()

	var buf bytes.Buffer
	if err := socyield.WriteChromeTrace(&buf, rec.Snapshot(), sampler.Samples(), tracer.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	phases := map[string]bool{}
	workerTracks := map[string]bool{}
	workerEvents := 0
	counterPoints := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("event %q has negative ts %v (base-time bug)", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid > 0:
			workerTracks[ev.Args["name"].(string)] = true
		case ev.Ph == "X" && ev.Cat == "phase":
			phases[ev.Name] = true
		case ev.Ph == "X" && ev.Tid > 0:
			workerEvents++
		case ev.Ph == "C":
			counterPoints++
		}
	}

	if len(phases) < 3 {
		t.Errorf("trace has %d distinct phase spans %v, want at least 3", len(phases), phases)
	}
	for _, want := range []string{"compile", "convert", "eval"} {
		if !phases[want] {
			t.Errorf("phase span %q missing (have %v)", want, phases)
		}
	}
	// The build compiles on one goroutine: its per-gate events form a
	// single track, announced by a thread_name metadata row.
	if len(workerTracks) != 1 {
		t.Errorf("trace has worker tracks %v, want exactly 1 (serial build)", workerTracks)
	}
	if workerEvents == 0 {
		t.Error("no per-gate build events in the trace")
	}
	if counterPoints == 0 {
		t.Error("no sampled counter points in the trace")
	}
	if sampler.Dropped() != 0 && len(sampler.Samples()) == 0 {
		t.Error("sampler dropped everything")
	}
}
