package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerCollectsSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work.done")
	g := r.Gauge("work.live")
	f := r.FloatGauge("work.rate")

	s := NewSampler(r, time.Millisecond, 64)
	s.Start()
	s.Start() // idempotent
	for i := 0; i < 5; i++ {
		c.Inc()
		g.Set(int64(i))
		f.Set(float64(i) / 2)
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent

	samples := s.Samples()
	// Start takes one immediately and Stop appends a final one, so even
	// instant runs have ≥ 2 points.
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want at least 2", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].UnixNano < samples[i-1].UnixNano {
			t.Fatalf("samples out of order at %d: %d after %d", i, samples[i].UnixNano, samples[i-1].UnixNano)
		}
		if samples[i].OffsetSeconds < samples[i-1].OffsetSeconds {
			t.Fatalf("offsets out of order at %d", i)
		}
	}
	last := samples[len(samples)-1]
	if last.Counters["work.done"] != 5 {
		t.Errorf("final sample counter = %d, want 5", last.Counters["work.done"])
	}
	if last.Gauges["work.live"] != 4 {
		t.Errorf("final sample gauge = %d, want 4", last.Gauges["work.live"])
	}
	if last.FloatGauges["work.rate"] != 2 {
		t.Errorf("final sample float gauge = %v, want 2", last.FloatGauges["work.rate"])
	}
}

func TestSamplerRingOverwritesOldest(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	s := NewSampler(r, time.Hour, 4) // manual sampling only
	for i := 1; i <= 10; i++ {
		c.Inc()
		s.sampleNow()
	}
	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("retained %d samples, want ring capacity 4", len(samples))
	}
	// The oldest six were overwritten; the window holds counts 7..10.
	for i, want := range []int64{7, 8, 9, 10} {
		if got := samples[i].Counters["n"]; got != want {
			t.Errorf("sample %d: counter = %d, want %d", i, got, want)
		}
	}
	if d := s.Dropped(); d != 6 {
		t.Errorf("Dropped() = %d, want 6", d)
	}
}

func TestSamplerConcurrentWithUpdates(t *testing.T) {
	// Run instrument updates, snapshots and sample reads concurrently
	// with the sampling goroutine; the race detector is the assertion.
	r := NewRegistry()
	s := NewSampler(r, time.Millisecond, 128)
	s.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("w.count")
			g := r.Gauge("w.gauge")
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Samples()
			_ = s.Dropped()
			_ = r.Snapshot()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()
	if len(s.Samples()) == 0 {
		t.Fatal("no samples collected")
	}
}

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if s.Samples() != nil || s.Dropped() != 0 {
		t.Error("nil sampler not inert")
	}
	if got := NewSampler(nil, 0, 0); got != nil {
		t.Errorf("NewSampler(nil registry) = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q, err %v", buf.String(), err)
	}
}

func TestSamplerWriteJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	s := NewSampler(r, time.Hour, 8)
	s.sampleNow()
	r.Counter("a").Add(4)
	s.sampleNow()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var lines []Sample
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var sample Sample
		if err := json.Unmarshal(sc.Bytes(), &sample); err != nil {
			t.Fatalf("line %d is not a JSON Sample: %v", len(lines), err)
		}
		lines = append(lines, sample)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0].Counters["a"] != 3 || lines[1].Counters["a"] != 7 {
		t.Errorf("counter series = %d, %d; want 3, 7", lines[0].Counters["a"], lines[1].Counters["a"])
	}
}

func TestTracerRingAndNilSafety(t *testing.T) {
	var nilT *Tracer
	nilT.Event("x", "y", 0, time.Now(), time.Second, nil) // must not panic
	if nilT.Events() != nil || nilT.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}

	tr := NewTracer(3)
	base := time.Now()
	for i := 0; i < 5; i++ {
		tr.Event("ev", "cat", i, base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, nil)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []int{2, 3, 4} {
		if evs[i].Worker != want {
			t.Errorf("event %d: worker = %d, want %d (oldest overwritten)", i, evs[i].Worker, want)
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
	r := NewRegistry()
	root := r.Span("evaluate")
	root.Child("compile").End()
	root.Child("convert").End()
	root.End()
	r.Gauge("bdd.live").Set(42)

	tr := NewTracer(16)
	now := time.Now()
	tr.Event("and/2", "compile", 0, now, time.Millisecond, map[string]any{"created": 3, "live": 7})
	tr.Event("layer 1", "convert", 2, now.Add(time.Millisecond), time.Millisecond, nil)

	s := NewSampler(r, time.Hour, 8)
	s.sampleNow()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Snapshot(), s.Samples(), tr.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	var phaseNames, threadNames []string
	counters := 0
	workerTids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Errorf("event %q has negative ts %v", ev.Name, ev.Ts)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames = append(threadNames, ev.Args["name"].(string))
		case ev.Ph == "X" && ev.Cat == "phase":
			phaseNames = append(phaseNames, ev.Name)
		case ev.Ph == "X":
			workerTids[ev.Tid] = true
			if ev.Name == "and/2" && (ev.Args["created"] != 3.0 || ev.Args["live"] != 7.0) {
				t.Errorf("event and/2 args = %v, want created 3 and live 7", ev.Args)
			}
		case ev.Ph == "C":
			counters++
		}
	}
	for _, want := range []string{"evaluate", "compile", "convert"} {
		found := false
		for _, got := range phaseNames {
			found = found || got == want
		}
		if !found {
			t.Errorf("phase span %q missing from trace (have %v)", want, phaseNames)
		}
	}
	// Worker 0 is tid 1, worker 2 is tid 3; both need thread_name rows.
	if !workerTids[1] || !workerTids[3] {
		t.Errorf("worker events on tids %v, want tids 1 and 3", workerTids)
	}
	joined := strings.Join(threadNames, ",")
	for _, want := range []string{"phases", "worker 0", "worker 2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("thread_name %q missing (have %q)", want, joined)
		}
	}
	if counters == 0 {
		t.Error("no counter (\"C\") events for the sampled gauge")
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

func TestSpansDroppedCounter(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxRootSpans+25; i++ {
		r.Span("s").End()
	}
	snap := r.Snapshot()
	if n := len(snap.Spans); n != maxRootSpans {
		t.Errorf("retained %d root spans, want %d", n, maxRootSpans)
	}
	if got := snap.Counters["obs.spans_dropped"]; got != 25 {
		t.Errorf("obs.spans_dropped = %d, want 25", got)
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
