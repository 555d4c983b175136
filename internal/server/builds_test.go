package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"socyield/internal/obs"
)

func getBuilds(t *testing.T, ts *httptest.Server) BuildsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/builds")
	if err != nil {
		t.Fatalf("GET /v1/builds: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/builds: status %d", resp.StatusCode)
	}
	var out BuildsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET /v1/builds: %v", err)
	}
	return out
}

// TestBuildsEndpoint holds a model build open with the test hook and
// checks GET /v1/builds reports it — phase, progress, live nodes,
// elapsed time — then shows an empty list once the build finishes.
func TestBuildsEndpoint(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.testBuildHook = func(bs *obs.BuildState) {
		// Simulate a build caught mid-compile: 40 of 100 gate tasks done.
		bs.StartPhase(obs.BuildCompile, 100)
		bs.Add(40)
		bs.SetLive(4242)
		close(started)
		<-release
	}

	if list := getBuilds(t, ts); len(list.Builds) != 0 {
		t.Fatalf("idle server reports %d builds", len(list.Builds))
	}

	body := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-4}`
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()

	<-started
	// The held evaluate request is in flight.
	if snap := s.Metrics().Snapshot(); snap.Gauges["http.inflight"] < 1 {
		t.Errorf("http.inflight = %d during a held build, want ≥ 1", snap.Gauges["http.inflight"])
	}
	list := getBuilds(t, ts)
	if len(list.Builds) != 1 {
		t.Fatalf("in-flight build count = %d, want 1", len(list.Builds))
	}
	b := list.Builds[0]
	if b.ModelKey == "" {
		t.Error("in-flight build has empty model key")
	}
	if b.System != "MS2" {
		t.Errorf("system = %q, want MS2", b.System)
	}
	if b.StartedAt.IsZero() {
		t.Error("started_at is zero")
	}
	if b.Status.Phase != "compile" {
		t.Errorf("phase = %q, want compile", b.Status.Phase)
	}
	if b.Status.PhaseDone != 40 || b.Status.PhaseTotal != 100 {
		t.Errorf("phase progress = %d/%d, want 40/100", b.Status.PhaseDone, b.Status.PhaseTotal)
	}
	if b.Status.LiveNodes != 4242 {
		t.Errorf("live nodes = %d, want 4242", b.Status.LiveNodes)
	}
	// The endpoint reports obs's phase-weighted progress: that of a
	// fresh BuildState 40% through compile.
	ref := obs.NewBuildState()
	ref.StartPhase(obs.BuildCompile, 100)
	ref.Add(40)
	if want := ref.Snapshot().Progress; want <= 0 || b.Status.Progress < want-1e-9 || b.Status.Progress > want+1e-9 {
		t.Errorf("progress = %v, want %v", b.Status.Progress, want)
	}
	if b.Status.ElapsedSeconds < 0 {
		t.Errorf("elapsed = %v", b.Status.ElapsedSeconds)
	}

	// The inflight gauge tracks the same count.
	if snap := s.Metrics().Snapshot(); snap.Gauges["build.inflight"] != 1 {
		t.Errorf("build.inflight = %d, want 1", snap.Gauges["build.inflight"])
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("evaluate request failed: %v", err)
	}
	// The build unregisters before the cache entry becomes ready, so the
	// list is empty as soon as the request returned.
	if list := getBuilds(t, ts); len(list.Builds) != 0 {
		t.Errorf("finished build still listed: %+v", list.Builds)
	}
	if snap := s.Metrics().Snapshot(); snap.Gauges["build.inflight"] != 0 {
		t.Errorf("build.inflight after finish = %d, want 0", snap.Gauges["build.inflight"])
	}
	// Close waits for every handler to return.
	ts.Close()
	if snap := s.Metrics().Snapshot(); snap.Gauges["http.inflight"] != 0 {
		t.Errorf("http.inflight on an idle server = %d, want 0", snap.Gauges["http.inflight"])
	}
}

// TestMetricsPrometheusFormat is the wiring check on GET /metrics: the
// text exposition parses, carries the socyield namespace, and includes
// the request-latency histogram series after a request was served.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out EvaluateResponse
	body := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-4}`
	if code := post(t, ts, "/v1/evaluate", body, &out); code != http.StatusOK {
		t.Fatalf("evaluate: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	text := string(raw)

	// Every non-comment line must be "name value" or "name{le=...} value".
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
			}
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE socyield_cache_misses counter",
		"socyield_cache_misses 1",
		"# TYPE socyield_http_latency_ns_evaluate histogram",
		"socyield_http_latency_ns_evaluate_count 1",
		`socyield_http_latency_ns_evaluate_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, text)
		}
	}
}

// TestRequestIDPropagation checks the middleware honors a provided
// X-Request-Id and generates one otherwise.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Errorf("echoed request id = %q, want trace-me-42", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "" {
		t.Error("no generated request id on response")
	}
}
