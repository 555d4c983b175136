package socyield_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"socyield"
)

// chromeTrace is the part of the Chrome trace-event JSON the tests read.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// writeTrace writes tracer's Chrome trace and decodes it.
func writeTrace(t *testing.T, tracer *socyield.Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := socyield.WriteChromeTrace(&buf, tracer); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// phaseDurations maps each build phase to its Result.Phases field.
func phaseDurations(res *socyield.Result) map[string]time.Duration {
	p := res.Phases
	return map[string]time.Duration{
		"prepare": p.Prepare, "encode": p.Encode, "order": p.Order,
		"compile": p.Compile, "convert": p.Convert, "eval": p.Eval,
	}
}

// TestFlightRecorderESENTrace runs the flight recorder over a real
// ESEN8x2 build and checks the Chrome trace export: the root
// "evaluate" slice and the six phase slices on the "phases" track,
// each lasting exactly its Result.Phases field, one "build" track of
// per-gate compile events with their created and live node counts,
// and the dropped-event count — the Perfetto-loadable artifact
// -trace-out produces.
func TestFlightRecorderESENTrace(t *testing.T) {
	sys, err := socyield.ESEN(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := socyield.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}

	tracer := socyield.NewTracer(0)
	// ε = 2e-2 keeps the truncation point small enough for a test while
	// still exercising the full multi-phase build.
	res, err := socyield.Evaluate(sys, socyield.Options{
		Defects: dist, Epsilon: 2e-2,
		Recorder: socyield.NewMetrics(),
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	doc := writeTrace(t, tracer)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	want := phaseDurations(res)
	phases := map[string]int{}
	tracks := map[int]string{}
	buildTids := map[int]bool{}
	var dropped any
	compileEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("event %q has negative ts %v (base-time bug)", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "M" && ev.Name == "process_name":
			dropped = ev.Args["dropped_events"]
		case ev.Ph == "M":
		case ev.Ph == "X" && ev.Cat == "phase":
			phases[ev.Name]++
			if tracks[ev.Tid] != "phases" {
				t.Errorf("phase slice %q on track %q, want \"phases\"", ev.Name, tracks[ev.Tid])
			}
			if d, ok := want[ev.Name]; ok && ev.Dur != float64(d)/1e3 {
				t.Errorf("phase slice %q lasts %v µs, Result.Phases holds %v", ev.Name, ev.Dur, d)
			}
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

	if len(phases) != 7 || phases["evaluate"] != 1 {
		t.Errorf("phase slices %v, want the root and six phases once each", phases)
	}
	for name := range want {
		if phases[name] != 1 {
			t.Errorf("phase slice %q appears %d times, want once", name, phases[name])
		}
	}
	if dropped != 0.0 {
		t.Errorf("process_name dropped_events = %v, want 0", dropped)
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

// TestTraceKeepsLatestBuilds runs 300 builds that share one Recorder
// and one Tracer, as a long-running yieldd does, and checks that the
// written trace holds every build's root slice and the six phase
// slices of the latest one inside its window: a trace that keeps only
// the first 256 builds' phases would lose them.
func TestTraceKeepsLatestBuilds(t *testing.T) {
	const builds = 300
	sys := tmr(t)
	dist, err := socyield.NewNegativeBinomial(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, tracer := socyield.NewMetrics(), socyield.NewTracer(0)
	var last *socyield.Result
	for i := 0; i < builds; i++ {
		if last, err = socyield.Evaluate(sys, socyield.Options{Defects: dist, Epsilon: 1e-4, Recorder: rec, Tracer: tracer}); err != nil {
			t.Fatal(err)
		}
	}

	doc := writeTrace(t, tracer)
	roots := 0
	var lastTs, lastEnd float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "evaluate" {
			roots++
			if ev.Ts >= lastTs {
				lastTs, lastEnd = ev.Ts, ev.Ts+ev.Dur
			}
		}
	}
	if roots != builds {
		t.Fatalf("trace holds %d root slices, want %d", roots, builds)
	}
	want := phaseDurations(last)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "phase" || ev.Ts < lastTs || ev.Ts > lastEnd {
			continue
		}
		if d, ok := want[ev.Name]; ok {
			if ev.Dur != float64(d)/1e3 {
				t.Errorf("last build's phase %q lasts %v µs, Result.Phases holds %v", ev.Name, ev.Dur, d)
			}
			delete(want, ev.Name)
		}
	}
	for name := range want {
		t.Errorf("last build's phase slice %q missing from the trace", name)
	}
}
