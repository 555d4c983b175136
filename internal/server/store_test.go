package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"socyield/internal/obs"
	"socyield/internal/store"
)

const quadFTDSL = `
system quad
component n1 0.1
component n2 0.1
component n3 0.15
component n4 0.15
fails = atleast(3, n1, n2, n3, n4)
`

func openTestStore(t *testing.T, dir string, maxBytes int64, rec *obs.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(dir, maxBytes, rec)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

func prometheusText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: reading body: %v", err)
	}
	return string(body)
}

// TestStoreWriteThroughAndWarmStart is the two-tier happy path: a
// compile on one server writes through to disk, and a fresh server
// sharing the directory warm-starts from it — the first request after
// a "restart" is an in-memory cache hit with zero compiles, and the
// store hit is visible in the Prometheus exposition.
func TestStoreWriteThroughAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	body := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-4}`

	reg1 := obs.NewRegistry()
	_, ts1 := newTestServer(t, Config{Metrics: reg1, Store: openTestStore(t, dir, 0, reg1)})
	var first EvaluateResponse
	if code := post(t, ts1, "/v1/evaluate", body, &first); code != http.StatusOK {
		t.Fatalf("first evaluate: status %d", code)
	}
	if first.CacheHit {
		t.Error("cold request reported cache_hit=true")
	}
	snap1 := reg1.Snapshot()
	if snap1.Counters["build.compiles"] != 1 || snap1.Counters["store.puts"] != 1 || snap1.Counters["store.misses"] != 1 {
		t.Fatalf("after cold build: compiles=%d puts=%d store_misses=%d, want 1/1/1",
			snap1.Counters["build.compiles"], snap1.Counters["store.puts"], snap1.Counters["store.misses"])
	}
	if _, err := os.Stat(filepath.Join(dir, first.ModelKey+".scm")); err != nil {
		t.Fatalf("write-through left no file for %s: %v", first.ModelKey, err)
	}

	// A fresh server over the same directory: warm start preloads the
	// model, so the request never leaves the in-memory tier.
	reg2 := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{Metrics: reg2, Store: openTestStore(t, dir, 0, reg2)})
	if snap := reg2.Snapshot(); snap.Counters["store.warm_loads"] != 1 || snap.Counters["store.hits"] != 1 {
		t.Fatalf("warm start: warm_loads=%d store_hits=%d, want 1/1",
			snap.Counters["store.warm_loads"], snap.Counters["store.hits"])
	}
	var warm EvaluateResponse
	if code := post(t, ts2, "/v1/evaluate", body, &warm); code != http.StatusOK {
		t.Fatalf("warm evaluate: status %d", code)
	}
	if !warm.CacheHit {
		t.Error("warm-started model missed the in-memory cache")
	}
	if warm.Yield != first.Yield || warm.ErrorBound != first.ErrorBound || warm.M != first.M || warm.ModelKey != first.ModelKey {
		t.Errorf("warm-started model differs: %+v vs %+v", warm, first)
	}
	snap2 := reg2.Snapshot()
	if snap2.Counters["build.compiles"] != 0 {
		t.Errorf("build.compiles=%d after warm start, want 0", snap2.Counters["build.compiles"])
	}
	prom := prometheusText(t, ts2)
	if !strings.Contains(prom, "socyield_store_hits 1") || !strings.Contains(prom, "socyield_store_warm_loads 1") {
		t.Errorf("/metrics missing store series:\n%s", prom)
	}
}

// TestStoreSecondTierServesLRUMiss pins the store probe inside the
// build slot: with an in-memory capacity of 1 and two stored models,
// warm start registers only the newest — a request for the older one
// misses the LRU, enters the build path, and is served from disk with
// zero compiles.
func TestStoreSecondTierServesLRUMiss(t *testing.T) {
	dir := t.TempDir()
	ms2 := `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "epsilon": 1e-4}`
	tmr := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL)

	reg1 := obs.NewRegistry()
	_, ts1 := newTestServer(t, Config{Metrics: reg1, Store: openTestStore(t, dir, 0, reg1)})
	var wantMS2, wantTMR EvaluateResponse
	if code := post(t, ts1, "/v1/evaluate", ms2, &wantMS2); code != http.StatusOK {
		t.Fatalf("seed MS2: status %d", code)
	}
	if code := post(t, ts1, "/v1/evaluate", tmr, &wantTMR); code != http.StatusOK {
		t.Fatalf("seed TMR: status %d", code)
	}
	// Make the recency order unambiguous: MS2 is old, TMR is newest.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, wantMS2.ModelKey+".scm"), old, old); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{CacheEntries: 1, Metrics: reg2, Store: openTestStore(t, dir, 0, reg2)})
	if snap := reg2.Snapshot(); snap.Counters["store.warm_loads"] != 1 {
		t.Fatalf("warm_loads=%d with capacity 1, want 1", snap.Counters["store.warm_loads"])
	}
	// The newest model (TMR) is the one warm-started: it hits the LRU.
	var gotTMR EvaluateResponse
	if code := post(t, ts2, "/v1/evaluate", tmr, &gotTMR); code != http.StatusOK {
		t.Fatalf("TMR on warm server: status %d", code)
	}
	if !gotTMR.CacheHit || gotTMR.Yield != wantTMR.Yield {
		t.Errorf("warm TMR: cache_hit=%v yield=%.17g, want hit with %.17g", gotTMR.CacheHit, gotTMR.Yield, wantTMR.Yield)
	}
	// MS2 misses the LRU but is served from the persistent tier.
	var gotMS2 EvaluateResponse
	if code := post(t, ts2, "/v1/evaluate", ms2, &gotMS2); code != http.StatusOK {
		t.Fatalf("MS2 on warm server: status %d", code)
	}
	if gotMS2.CacheHit {
		t.Error("MS2 reported an in-memory cache hit; it should have come from the store")
	}
	if gotMS2.Yield != wantMS2.Yield || gotMS2.ErrorBound != wantMS2.ErrorBound || gotMS2.M != wantMS2.M {
		t.Errorf("store-served MS2 differs: %+v vs %+v", gotMS2, wantMS2)
	}
	snap := reg2.Snapshot()
	if snap.Counters["build.compiles"] != 0 {
		t.Errorf("build.compiles=%d, want 0: the store must satisfy the LRU miss", snap.Counters["build.compiles"])
	}
	if snap.Counters["cache.misses"] != 1 {
		t.Errorf("cache.misses=%d, want 1: the MS2 request must enter the build slot", snap.Counters["cache.misses"])
	}
	if snap.Counters["store.hits"] != 2 { // warm start + LRU-miss probe
		t.Errorf("store.hits=%d, want 2", snap.Counters["store.hits"])
	}
}

// TestStoreCorruptionFallsBackToRebuild: a corrupt entry under a valid
// key must cost exactly one recompile — the probe detects it, evicts
// the file, the request rebuilds cleanly, and the write-through leaves
// a decodable entry in its place.
func TestStoreCorruptionFallsBackToRebuild(t *testing.T) {
	body := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL)

	// Learn the model key (and the reference bits) from a store-less server.
	_, ts0 := newTestServer(t, Config{})
	var want EvaluateResponse
	if code := post(t, ts0, "/v1/evaluate", body, &want); code != http.StatusOK {
		t.Fatalf("reference evaluate: status %d", code)
	}

	// Boot the server over an empty directory, then plant garbage under
	// the key it is about to probe.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg, Store: openTestStore(t, dir, 0, reg)})
	path := filepath.Join(dir, want.ModelKey+".scm")
	if err := os.WriteFile(path, []byte("this is not a compiled model"), 0o644); err != nil {
		t.Fatal(err)
	}

	var got EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", body, &got); code != http.StatusOK {
		t.Fatalf("evaluate over corrupt entry: status %d", code)
	}
	if got.Yield != want.Yield || got.ErrorBound != want.ErrorBound || got.M != want.M {
		t.Errorf("rebuild after corruption differs: %+v vs %+v", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["store.decode_errors"] != 1 {
		t.Errorf("store.decode_errors=%d, want 1", snap.Counters["store.decode_errors"])
	}
	if snap.Counters["build.compiles"] != 1 {
		t.Errorf("build.compiles=%d, want 1 (clean rebuild)", snap.Counters["build.compiles"])
	}
	// The write-through replaced the garbage with a decodable model.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("write-through left no file: %v", err)
	}
	decoded, err := store.Decode(data)
	if err != nil {
		t.Fatalf("replacement entry does not decode: %v", err)
	}
	if decoded.ModelKey != want.ModelKey {
		t.Errorf("replacement entry key %s, want %s", decoded.ModelKey, want.ModelKey)
	}
}

// TestStoreWarmStartEvictsCorruptEntries: corruption discovered during
// warm start is evicted on the spot and never fails boot.
func TestStoreWarmStartEvictsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL)

	reg1 := obs.NewRegistry()
	_, ts1 := newTestServer(t, Config{Metrics: reg1, Store: openTestStore(t, dir, 0, reg1)})
	var seeded EvaluateResponse
	if code := post(t, ts1, "/v1/evaluate", body, &seeded); code != http.StatusOK {
		t.Fatalf("seed: status %d", code)
	}
	path := filepath.Join(dir, seeded.ModelKey+".scm")
	if err := os.WriteFile(path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{Metrics: reg2, Store: openTestStore(t, dir, 0, reg2)})
	snap := reg2.Snapshot()
	if snap.Counters["store.warm_loads"] != 0 || snap.Counters["store.decode_errors"] != 1 {
		t.Errorf("warm start over corrupt entry: warm_loads=%d decode_errors=%d, want 0/1",
			snap.Counters["store.warm_loads"], snap.Counters["store.decode_errors"])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not evicted during warm start: %v", err)
	}
	// The server still serves the model — by recompiling.
	var got EvaluateResponse
	if code := post(t, ts2, "/v1/evaluate", body, &got); code != http.StatusOK {
		t.Fatalf("evaluate after corrupt warm start: status %d", code)
	}
	if got.Yield != seeded.Yield {
		t.Errorf("yield %.17g, want %.17g", got.Yield, seeded.Yield)
	}
}

// TestStoreDiskCapEviction: with a byte cap smaller than any one
// entry, every write evicts its predecessor — the server keeps
// working, and the newest model is always the one on disk (oversized
// entries survive alone rather than thrashing to zero).
func TestStoreDiskCapEviction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg, Store: openTestStore(t, dir, 1, reg)})

	bodies := []string{
		fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL),
		fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, quadFTDSL),
	}
	var keys []string
	for i, body := range bodies {
		var r EvaluateResponse
		if code := post(t, ts, "/v1/evaluate", body, &r); code != http.StatusOK {
			t.Fatalf("model %d: status %d", i, code)
		}
		keys = append(keys, r.ModelKey)
	}
	if keys[0] == keys[1] {
		t.Fatal("test models share a key; they must differ")
	}
	if _, err := os.Stat(filepath.Join(dir, keys[0]+".scm")); !os.IsNotExist(err) {
		t.Errorf("oldest entry survived past the byte cap: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[1]+".scm")); err != nil {
		t.Errorf("newest entry missing: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["store.evictions"] != 1 {
		t.Errorf("store.evictions=%d, want 1", snap.Counters["store.evictions"])
	}
	if snap.Gauges["store.entries"] != 1 {
		t.Errorf("store.entries=%d, want 1", snap.Gauges["store.entries"])
	}
}
