package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"testing"
	"time"
)

func TestTracerRingAndNilSafety(t *testing.T) {
	var nilT *Tracer
	nilT.Event("x", "y", time.Now(), time.Second, nil) // must not panic
	if nilT.Events() != nil || nilT.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nilT); err != nil || !json.Valid(buf.Bytes()) {
		t.Errorf("nil tracer trace: err %v, valid JSON %v", err, json.Valid(buf.Bytes()))
	}

	tr := NewTracer(3)
	base := time.Now()
	for i := 0; i < 5; i++ {
		tr.Event("ev"+strconv.Itoa(i), "cat", base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, nil)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []string{"ev2", "ev3", "ev4"} {
		if evs[i].Name != want {
			t.Errorf("event %d = %q, want %q (oldest overwritten)", i, evs[i].Name, want)
		}
	}
	if d := tr.Dropped(); d != 2 {
		t.Errorf("Dropped() = %d, want 2", d)
	}
}

// chromeDoc mirrors the trace-event JSON for decoding in tests.
type chromeDoc struct {
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

func TestWriteChromeTrace(t *testing.T) {
	// A ring of four holds the last four of five events: the first
	// gate is dropped, and a phase event is recorded after its gates.
	tr := NewTracer(4)
	now := time.Now()
	tr.Event("lost/1", "compile", now, time.Millisecond, map[string]any{"created": 1, "live": 1})
	tr.Event("and/2", "compile", now.Add(time.Millisecond), time.Millisecond, map[string]any{"created": 3, "live": 7})
	tr.Event("or/3", "compile", now.Add(2*time.Millisecond), time.Millisecond, map[string]any{"created": 1, "live": 8})
	tr.Event("compile", "phase", now, 3*time.Millisecond, nil)
	tr.Event("evaluate", "phase", now, 4*time.Millisecond, nil)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	var phaseNames []string
	var dropped any
	tracks := map[int]string{}
	buildTids := map[int]bool{}
	buildEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Errorf("event %q has negative ts %v", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "M" && ev.Name == "process_name":
			dropped = ev.Args["dropped_events"]
		case ev.Ph == "X" && ev.Cat == "phase":
			if ev.Tid != 0 {
				t.Errorf("phase %q on tid %d, want the phases track", ev.Name, ev.Tid)
			}
			if ev.Name == "compile" && (ev.Ts != 0 || ev.Dur != 3000) {
				t.Errorf("phase compile at ts %v dur %v µs, want 0 and 3000", ev.Ts, ev.Dur)
			}
			phaseNames = append(phaseNames, ev.Name)
		case ev.Ph == "X":
			buildTids[ev.Tid] = true
			buildEvents++
			if ev.Args["created"] == nil || ev.Args["live"] == nil {
				t.Errorf("event %s args = %v, want created and live", ev.Name, ev.Args)
			}
			if ev.Name == "and/2" && (ev.Args["created"] != 3.0 || ev.Args["live"] != 7.0) {
				t.Errorf("event and/2 args = %v, want created 3 and live 7", ev.Args)
			}
		default:
			t.Errorf("unexpected %q event %q (only metadata and complete events)", ev.Ph, ev.Name)
		}
	}
	if dropped != 1.0 {
		t.Errorf("process_name dropped_events = %v, want 1", dropped)
	}
	if !slices.Equal(phaseNames, []string{"compile", "evaluate"}) {
		t.Errorf("phase slices %v, want compile and evaluate", phaseNames)
	}
	if buildEvents != 2 || len(buildTids) != 1 {
		t.Fatalf("%d build events on tids %v, want 2 on one track", buildEvents, buildTids)
	}
	for tid := range buildTids {
		if tracks[tid] != "build" {
			t.Errorf("build events on tid %d named %q, want \"build\"", tid, tracks[tid])
		}
	}
	if len(tracks) != 2 || tracks[0] != "phases" {
		t.Errorf("tracks %v, want phases on tid 0 and one build track", tracks)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(7)
	r.Gauge("bdd.live").Set(1234)
	r.FloatGauge("yield.value").Set(0.5)
	h := r.Histogram("http.latency_ns.evaluate")
	h.Observe(1) // bucket [1,2) → le 1
	h.Observe(1)
	h.Observe(3) // bucket [2,4) → le 3

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "socyield"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# TYPE socyield_bdd_live gauge
socyield_bdd_live 1234
# TYPE socyield_cache_hits counter
socyield_cache_hits 7
# TYPE socyield_http_latency_ns_evaluate histogram
socyield_http_latency_ns_evaluate_bucket{le="1"} 2
socyield_http_latency_ns_evaluate_bucket{le="3"} 3
socyield_http_latency_ns_evaluate_bucket{le="+Inf"} 3
socyield_http_latency_ns_evaluate_sum 5
socyield_http_latency_ns_evaluate_count 3
# TYPE socyield_yield_value gauge
socyield_yield_value 0.5
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	cases := []struct{ ns, in, want string }{
		{"socyield", "bdd.apply_cache_hits", "socyield_bdd_apply_cache_hits"},
		{"", "a.b-c", "a_b_c"},
		{"", "0abc", "_0abc"},
		{"ns", "x:y", "ns_x:y"},
	}
	for _, c := range cases {
		if got := promName(c.ns, c.in); got != c.want {
			t.Errorf("promName(%q, %q) = %q, want %q", c.ns, c.in, got, c.want)
		}
	}
}

func TestPrometheusHandlerNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "socyield"); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

func TestBuildStateLifecycle(t *testing.T) {
	var nilB *BuildState
	nilB.StartPhase(BuildCompile, 10)
	nilB.Add(1)
	nilB.SetTotal(5)
	nilB.SetLive(100)
	nilB.Finish()
	if nilB.Phase() != BuildPending {
		t.Error("nil BuildState phase != pending")
	}
	st := nilB.Snapshot()
	if st.Phase != "pending" || st.ETASeconds != -1 {
		t.Errorf("nil snapshot = %+v", st)
	}

	b := NewBuildState()
	if b.Phase() != BuildPending {
		t.Errorf("initial phase = %v", b.Phase())
	}
	b.StartPhase(BuildCompile, 100)
	b.Add(50)
	b.SetLive(4242)
	st = b.Snapshot()
	if st.Phase != "compile" || st.PhaseDone != 50 || st.PhaseTotal != 100 {
		t.Errorf("compile snapshot = %+v", st)
	}
	if st.LiveNodes != 4242 {
		t.Errorf("live nodes = %d", st.LiveNodes)
	}
	// Half of compile done: halfway between its start and convert's.
	start, end := buildPhaseStart[BuildCompile], buildPhaseStart[BuildConvert]
	if want := start + (end-start)*0.5; st.Progress < want-1e-9 || st.Progress > want+1e-9 {
		t.Errorf("progress = %v, want %v", st.Progress, want)
	}
	if st.ETASeconds < 0 {
		t.Errorf("ETA = %v, want an estimate at %v progress", st.ETASeconds, st.Progress)
	}

	// StartPhase resets the per-phase counters.
	b.StartPhase(BuildConvert, 0)
	st = b.Snapshot()
	if st.Phase != "convert" || st.PhaseDone != 0 || st.PhaseTotal != 0 {
		t.Errorf("convert snapshot = %+v", st)
	}
	// Unknown total: progress sits at the phase start, never overstated.
	if st.Progress != buildPhaseStart[BuildConvert] {
		t.Errorf("progress with unknown total = %v, want %v", st.Progress, buildPhaseStart[BuildConvert])
	}
	b.SetTotal(10)
	b.Add(20) // done past total: fraction clamps to 1
	if p := b.Snapshot().Progress; p != buildPhaseStart[BuildEval] {
		t.Errorf("overshot progress = %v, want next phase start %v", p, buildPhaseStart[BuildEval])
	}

	b.Finish()
	st = b.Snapshot()
	if st.Phase != "done" || st.Progress != 1 {
		t.Errorf("done snapshot = %+v", st)
	}
}

func TestETAGuards(t *testing.T) {
	if _, ok := ETA(0, 100, time.Second); ok {
		t.Error("ETA with zero done should have no estimate")
	}
	if _, ok := ETA(10, 0, time.Second); ok {
		t.Error("ETA with unknown total should have no estimate")
	}
	if _, ok := ETA(10, 100, 0); ok {
		t.Error("ETA with zero elapsed should have no estimate")
	}
	if d, ok := ETA(100, 100, time.Second); !ok || d != 0 {
		t.Errorf("ETA at completion = %v, %v; want 0, true", d, ok)
	}
	if d, ok := ETA(150, 100, time.Second); !ok || d != 0 {
		t.Errorf("ETA past total = %v, %v; want clamp to 0", d, ok)
	}
	if d, ok := ETA(25, 100, time.Minute); !ok || d != 3*time.Minute {
		t.Errorf("ETA(25/100 in 1m) = %v, %v; want 3m", d, ok)
	}
	// Overflow of the extrapolation clamps instead of going negative.
	if d, ok := ETA(1, 1<<62, time.Duration(1<<62)); !ok || d < 0 {
		t.Errorf("overflowing ETA = %v, %v; want non-negative", d, ok)
	}
}
