package socyield_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"socyield"
)

// TestFlightRecorderESENTrace runs the flight recorder over a real
// ESEN8x2 build and checks the Chrome trace export carries the
// pipeline's phase spans and one build track of per-gate compile
// events with their created and live node counts — the
// Perfetto-loadable artifact -trace-out produces.
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

	var buf bytes.Buffer
	if err := socyield.WriteChromeTrace(&buf, rec.Snapshot(), tracer.Events()); err != nil {
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
	tracks := map[int]string{}
	buildTids := map[int]bool{}
	compileEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("event %q has negative ts %v (base-time bug)", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "M":
		case ev.Ph == "X" && ev.Cat == "phase":
			phases[ev.Name] = true
		case ev.Ph == "X":
			buildTids[ev.Tid] = true
			if ev.Cat != "compile" {
				continue
			}
			compileEvents++
			if _, ok := ev.Args["created"]; !ok {
				t.Errorf("compile event %q has no created argument: %v", ev.Name, ev.Args)
			}
			if _, ok := ev.Args["live"]; !ok {
				t.Errorf("compile event %q has no live argument: %v", ev.Name, ev.Args)
			}
		default:
			t.Errorf("unexpected %q event %q in the trace", ev.Ph, ev.Name)
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
	// The build is serial: its per-gate events form a single track,
	// announced by a thread_name metadata row.
	if len(buildTids) != 1 {
		t.Fatalf("build events on tids %v, want exactly one track", buildTids)
	}
	for tid := range buildTids {
		if tracks[tid] != "build" {
			t.Errorf("build events on tid %d named %q, want \"build\"", tid, tracks[tid])
		}
	}
	if len(tracks) != 2 {
		t.Errorf("trace has tracks %v, want phases and one build track", tracks)
	}
	if compileEvents == 0 {
		t.Error("no per-gate compile events in the trace")
	}
}
