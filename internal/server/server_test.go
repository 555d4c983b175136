package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/ftdsl"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/yield"
)

const tmrFTDSL = `
system tmr
component m1 0.2
component m2 0.15
component m3 0.15
fails = atleast(2, m1, m2, m3)
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and decodes the JSON response into out,
// returning the status code.
func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestEvaluateBitIdenticalToLibrary is the service's core contract:
// the HTTP path (ModelKey → cached Reevaluator → Yield) returns the
// exact float64 bits the library's Evaluate produces for the same
// inputs — both for a named benchmark and for ftdsl source, on cold
// and warm cache.
func TestEvaluateBitIdenticalToLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		body string
		sys  func() (*yield.System, error)
		opts yield.Options
	}{
		{
			name: "bench MS2",
			body: `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-4}`,
			sys:  func() (*yield.System, error) { return benchmarks.ByName("MS2") },
			opts: yield.Options{Defects: mustNB(t, 2, 0.25), Epsilon: 1e-4},
		},
		{
			name: "ftdsl TMR poisson",
			body: fmt.Sprintf(`{"ftdsl": %q, "defects": {"dist": "poisson", "lambda": 1.5}, "epsilon": 1e-5, "mv_order": "wv", "bit_order": "lm"}`, tmrFTDSL),
			sys:  func() (*yield.System, error) { return ftdsl.Parse(tmrFTDSL) },
			opts: yield.Options{Defects: defects.Poisson{Lambda: 1.5}, Epsilon: 1e-5,
				MVOrder: order.MVWV, BitOrder: order.BitLM},
		},
		{
			name: "bench MS2 hierarchical",
			body: `{"bench": "MS2", "defects": {"dist": "hierarchical", "lambda": 1.5, "alpha": 2, "beta": 3}, "epsilon": 1e-4}`,
			sys:  func() (*yield.System, error) { return benchmarks.ByName("MS2") },
			opts: yield.Options{Defects: mustHierarchical(t, 1.5, 2, 3), Epsilon: 1e-4},
		},
		{
			// W at the bottom of the order: the split pass and a plain
			// forward pass round differently there.
			name: "bench MS2 vw",
			body: `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 2}, "epsilon": 5e-3, "mv_order": "vw"}`,
			sys:  func() (*yield.System, error) { return benchmarks.ByName("MS2") },
			opts: yield.Options{Defects: mustNB(t, 2, 2), Epsilon: 5e-3, MVOrder: order.MVVW},
		},
		{
			name: "ftdsl TMR multilevel",
			body: fmt.Sprintf(`{"ftdsl": %q, "defects": {"dist": "multilevel", "lambda": 1, "alphas": [2, 3]}, "epsilon": 1e-4}`, tmrFTDSL),
			sys:  func() (*yield.System, error) { return ftdsl.Parse(tmrFTDSL) },
			opts: yield.Options{Defects: mustMultilevel(t, 1, 2, 3), Epsilon: 1e-4},
		},
	}
	for _, tc := range cases {
		sys, err := tc.sys()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := yield.Evaluate(sys, tc.opts)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", tc.name, err)
		}
		for round := 0; round < 2; round++ { // cold, then cached
			var got EvaluateResponse
			if code := post(t, ts, "/v1/evaluate", tc.body, &got); code != http.StatusOK {
				t.Fatalf("%s round %d: status %d", tc.name, round, code)
			}
			if got.Yield != want.Yield {
				t.Errorf("%s round %d: yield %.17g, library %.17g", tc.name, round, got.Yield, want.Yield)
			}
			if got.ErrorBound != want.ErrorBound {
				t.Errorf("%s round %d: bound %.17g, library %.17g", tc.name, round, got.ErrorBound, want.ErrorBound)
			}
			if got.M != want.M {
				t.Errorf("%s round %d: M=%d, library M=%d", tc.name, round, got.M, want.M)
			}
			if hit := round == 1; got.CacheHit != hit {
				t.Errorf("%s round %d: cache_hit=%v, want %v", tc.name, round, got.CacheHit, hit)
			}
		}
	}
}

func mustNB(t *testing.T, lambda, alpha float64) defects.Distribution {
	t.Helper()
	d, err := defects.NewNegativeBinomial(lambda, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustHierarchical(t *testing.T, lambda, alpha, beta float64) defects.Distribution {
	t.Helper()
	d, err := defects.NewHierarchical(lambda, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustMultilevel(t *testing.T, lambda float64, alphas ...float64) defects.Distribution {
	t.Helper()
	d, err := defects.NewMultilevel(lambda, alphas...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCacheHitCounter is the acceptance check on /metrics: a repeated
// identical request is a cache hit visible in the cache-hit counter.
func TestCacheHitCounter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 2}}`

	var first, second EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", body, &first); code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if code := post(t, ts, "/v1/evaluate", body, &second); code != http.StatusOK {
		t.Fatalf("second request: status %d", code)
	}
	if first.CacheHit || !second.CacheHit {
		t.Errorf("cache_hit: first %v (want false), second %v (want true)", first.CacheHit, second.CacheHit)
	}
	if first.ModelKey == "" || first.ModelKey != second.ModelKey {
		t.Errorf("model keys: %q vs %q", first.ModelKey, second.ModelKey)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["cache.hits"] != 1 || snap.Counters["cache.misses"] != 1 || snap.Counters["build.compiles"] != 1 {
		t.Errorf("counters: cache.hits=%d cache.misses=%d build.compiles=%d, want 1/1/1",
			snap.Counters["cache.hits"], snap.Counters["cache.misses"], snap.Counters["build.compiles"])
	}
	if snap.Counters["http.requests"] < 2 {
		t.Errorf("http.requests=%d, want ≥ 2", snap.Counters["http.requests"])
	}
}

// TestConcurrentIdenticalRequestsCompileOnce exercises the
// single-flight path: N concurrent identical requests must trigger
// exactly one model build and all return the same bits. Run under
// -race this also validates the cache's synchronization.
func TestConcurrentIdenticalRequestsCompileOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 16})
	body := `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "epsilon": 1e-4}`

	const n = 8
	var wg sync.WaitGroup
	results := make([]EvaluateResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if results[i].Yield != results[0].Yield || results[i].M != results[0].M {
			t.Errorf("request %d: yield %.17g (M=%d) differs from request 0 (%.17g, M=%d)",
				i, results[i].Yield, results[i].M, results[0].Yield, results[0].M)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["build.compiles"] != 1 {
		t.Errorf("build.compiles=%d, want 1 (single-flight)", snap.Counters["build.compiles"])
	}
	if got := snap.Counters["cache.hits"] + snap.Counters["cache.misses"]; got != n {
		t.Errorf("hits+misses=%d, want %d", got, n)
	}
	if s.cache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.cache.len())
	}
}

// TestSweep checks that /v1/sweep reuses the compiled model and that
// the grid point matching the base model is bit-identical to
// /v1/evaluate for the same inputs.
func TestSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var ev EvaluateResponse
	evBody := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 2}, "epsilon": 1e-4}`
	if code := post(t, ts, "/v1/evaluate", evBody, &ev); code != http.StatusOK {
		t.Fatalf("evaluate: status %d", code)
	}

	var sw SweepResponse
	swBody := `{"bench": "MS2", "defects": {"lambda": 2, "alpha": 2}, "epsilon": 1e-4,
		"lambdas": [0.5, 1, 2, 4], "workers": 4}`
	if code := post(t, ts, "/v1/sweep", swBody, &sw); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	if !sw.CacheHit {
		t.Error("sweep after evaluate of the same model: cache_hit=false")
	}
	if sw.ModelKey != ev.ModelKey || sw.M != ev.M {
		t.Errorf("sweep model (%s, M=%d) differs from evaluate (%s, M=%d)", sw.ModelKey, sw.M, ev.ModelKey, ev.M)
	}
	if len(sw.Results) != 4 {
		t.Fatalf("sweep returned %d results, want 4", len(sw.Results))
	}
	for i, r := range sw.Results {
		if r.Error != "" {
			t.Errorf("point %d (λ=%g): %s", i, r.Lambda, r.Error)
		}
		if r.Yield < 0 || r.Yield > 1 {
			t.Errorf("point %d: yield %v outside [0,1]", i, r.Yield)
		}
	}
	// λ=2 is the base model: bit-identical to the evaluate response.
	if sw.Results[2].Yield != ev.Yield || sw.Results[2].ErrorBound != ev.ErrorBound {
		t.Errorf("sweep λ=2 (%.17g ± %.17g) differs from evaluate (%.17g ± %.17g)",
			sw.Results[2].Yield, sw.Results[2].ErrorBound, ev.Yield, ev.ErrorBound)
	}
	// Yield decreases with λ (more defects, lower yield).
	for i := 1; i < len(sw.Results); i++ {
		if sw.Results[i].Yield > sw.Results[i-1].Yield {
			t.Errorf("yield not monotone in λ: Y(%g)=%v > Y(%g)=%v",
				sw.Results[i].Lambda, sw.Results[i].Yield, sw.Results[i-1].Lambda, sw.Results[i-1].Yield)
		}
	}

	// A serial re-run of the same sweep is bit-identical.
	var sw1 SweepResponse
	if code := post(t, ts, "/v1/sweep", strings.Replace(swBody, `"workers": 4`, `"workers": 1`, 1), &sw1); code != http.StatusOK {
		t.Fatalf("serial sweep: status %d", code)
	}
	for i := range sw.Results {
		if sw.Results[i] != sw1.Results[i] {
			t.Errorf("point %d: parallel %+v != serial %+v", i, sw.Results[i], sw1.Results[i])
		}
	}

	// Every point of a λ sweep shares the lethalities, so each sweep
	// costs one ROMDD pass, not one per point.
	snap := s.Metrics().Snapshot()
	if snap.Counters["sweep.passes"] != 2 || snap.Counters["sweep.points"] != 8 {
		t.Errorf("sweep.passes=%d, sweep.points=%d; want 2 passes for 8 points",
			snap.Counters["sweep.passes"], snap.Counters["sweep.points"])
	}
}

// TestSensitivities spot-checks the sensitivities path: the TMR
// components are interchangeable up to their P_i, and every ∂Y/∂P_i
// must be negative (more lethality, less yield).
func TestSensitivities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}, "sensitivities": true}`, tmrFTDSL)
	var resp EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", body, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Sensitivities) != 3 {
		t.Fatalf("got %d sensitivities, want 3", len(resp.Sensitivities))
	}
	for _, s := range resp.Sensitivities {
		if s.DYieldDP >= 0 {
			t.Errorf("∂Y/∂P_%s = %v, want negative", s.Component, s.DYieldDP)
		}
	}
}

// TestSensitivitiesAtFullLethality: a series system with P_L = 1.
// Bumping a P_i would leave (0,1]; the exact derivative needs no bump,
// so the request succeeds, and every component gets dQ'_0/dP_L.
func TestSensitivitiesAtFullLethality(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `
system series
component a 0.5
component b 0.25
component c 0.25
fails = or(a, b, c)
`
	body := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}, "sensitivities": true}`, src)
	var resp EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", body, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Y = Q'_0 = (1+λ/α)^-α, so dY/dP_L = −λ·(1+λ/α)^-(α+1).
	want := -math.Pow(1.5, -3)
	if math.Abs(resp.Yield-math.Pow(1.5, -2)) > 1e-15 {
		t.Errorf("yield %v, want %v", resp.Yield, math.Pow(1.5, -2))
	}
	if len(resp.Sensitivities) != 3 {
		t.Fatalf("got %d sensitivities, want 3", len(resp.Sensitivities))
	}
	for _, s := range resp.Sensitivities {
		if math.Abs(s.DYieldDP-want) > 1e-14 {
			t.Errorf("∂Y/∂P_%s = %v, want %v", s.Component, s.DYieldDP, want)
		}
	}
}

// TestLethalitiesRoundedAboveOne: 0.33 + 0.56 + 0.11 is
// 1.0000000000000002 in float64. The server takes that as P_L = 1, in
// the system's own components and as a lethality override, so a
// series system's yield is Q'_0 of the unthinned law.
func TestLethalitiesRoundedAboveOne(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `
system series
component a 0.33
component b 0.56
component c 0.11
fails = or(a, b, c)
`
	own := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}, "sensitivities": true}`, src)
	override := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}, "lethalities": [0.33, 0.56, 0.11], "sensitivities": true}`,
		strings.Replace(strings.Replace(src, "0.56", "0.5", 1), "0.33", "0.39", 1))
	for name, body := range map[string]string{"components": own, "override": override} {
		var resp EvaluateResponse
		if code := post(t, ts, "/v1/evaluate", body, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if want := math.Pow(1.5, -2); math.Abs(resp.Yield-want) > 1e-15 {
			t.Errorf("%s: yield %v, want %v", name, resp.Yield, want)
		}
		if len(resp.Sensitivities) != 3 {
			t.Fatalf("%s: got %d sensitivities, want 3", name, len(resp.Sensitivities))
		}
		for _, s := range resp.Sensitivities {
			if want := -math.Pow(1.5, -3); math.Abs(s.DYieldDP-want) > 1e-14 {
				t.Errorf("%s: ∂Y/∂P_%s = %v, want %v", name, s.Component, s.DYieldDP, want)
			}
		}
	}
}

// TestLethalitiesOverride: overriding P_i (at the same total P_L, so
// the truncation point is unchanged) changes the yield but not the
// compiled model — same key, cache hit.
func TestLethalitiesOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL)
	// 0.3+0.15+0.05 = 0.2+0.15+0.15 = 0.5: P_L (hence M and the model
	// key) is unchanged, but the lethality now concentrates on m1.
	override := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}, "lethalities": [0.3, 0.15, 0.05]}`, tmrFTDSL)

	var r1, r2 EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", base, &r1); code != http.StatusOK {
		t.Fatalf("base: status %d", code)
	}
	if code := post(t, ts, "/v1/evaluate", override, &r2); code != http.StatusOK {
		t.Fatalf("override: status %d", code)
	}
	if r1.ModelKey != r2.ModelKey {
		t.Errorf("lethality override changed the model key: %s vs %s", r1.ModelKey, r2.ModelKey)
	}
	if !r2.CacheHit {
		t.Error("lethality override missed the cache")
	}
	if r2.Yield == r1.Yield {
		t.Error("redistributing lethality across TMR components left the yield bit-identical; expected a different value")
	}
	if r2.Yield < 0 || r2.Yield > 1 {
		t.Errorf("override yield %v outside [0,1]", r2.Yield)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tooMany := `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "lambdas": [` + strings.Repeat("1,", maxSweepPoints) + `1]}`
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/evaluate", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/evaluate", `{"bogus": 1}`, http.StatusBadRequest},
		{"no source", "/v1/evaluate", `{"defects": {"lambda": 1, "alpha": 2}}`, http.StatusBadRequest},
		{"both sources", "/v1/evaluate", `{"bench": "MS2", "ftdsl": "x", "defects": {"lambda": 1, "alpha": 2}}`, http.StatusBadRequest},
		{"unknown bench", "/v1/evaluate", `{"bench": "NOPE3", "defects": {"lambda": 1, "alpha": 2}}`, http.StatusBadRequest},
		{"bad ftdsl", "/v1/evaluate", `{"ftdsl": "system x\nfails = foo(", "defects": {"lambda": 1, "alpha": 2}}`, http.StatusBadRequest},
		{"no defects", "/v1/evaluate", `{"bench": "MS2"}`, http.StatusBadRequest},
		{"bad distribution", "/v1/evaluate", `{"bench": "MS2", "defects": {"dist": "zipf", "lambda": 1}}`, http.StatusBadRequest},
		{"bad nb params", "/v1/evaluate", `{"bench": "MS2", "defects": {"lambda": -1, "alpha": 2}}`, http.StatusBadRequest},
		{"bad hierarchical params", "/v1/evaluate", `{"bench": "MS2", "defects": {"dist": "hierarchical", "lambda": 1, "alpha": 0, "beta": 2}}`, http.StatusBadRequest},
		{"multilevel without alphas", "/v1/evaluate", `{"bench": "MS2", "defects": {"dist": "multilevel", "lambda": 1}}`, http.StatusBadRequest},
		{"bad mv order", "/v1/evaluate", `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "mv_order": "zz"}`, http.StatusBadRequest},
		{"bad lethality count", "/v1/evaluate", `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "lethalities": [0.5]}`, http.StatusBadRequest},
		{"empty lambdas", "/v1/sweep", `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}, "lambdas": []}`, http.StatusBadRequest},
		{"too many lambdas", "/v1/sweep", tooMany, http.StatusBadRequest},
		{"get on evaluate", "/v1/evaluate", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var code int
		if tc.name == "get on evaluate" {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp.Body.Close()
			code = resp.StatusCode
		} else {
			var e errorResponse
			code = post(t, ts, tc.path, tc.body, &e)
			if code != http.StatusOK && e.Error == "" {
				t.Errorf("%s: error body missing", tc.name)
			}
		}
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestBodyLimit: a request body one byte over the limit is a 400 that
// names the cause; one at the limit is read in full.
func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const prefix, suffix = `{"bench": "`, `"}`
	for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
		body := prefix + strings.Repeat("x", size-len(prefix)-len(suffix)) + suffix
		var e errorResponse
		code := post(t, ts, "/v1/evaluate", body, &e)
		tooLarge := strings.Contains(e.Error, "request body too large")
		if code != http.StatusBadRequest || tooLarge != (size > maxBodyBytes) {
			t.Errorf("%d-byte body: status %d, error %.80q", size, code, e.Error)
		}
	}
}

// TestNodeLimitAndRetry: a model over the node budget fails with 422,
// and — because failed builds are dropped from the cache — an
// identical retry rebuilds instead of replaying the cached error.
func TestNodeLimitAndRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeLimit: -1}) // negative = unlimited
	s2, ts2 := newTestServer(t, Config{NodeLimit: 8})
	body := `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}}`
	var e errorResponse
	if code := post(t, ts2, "/v1/evaluate", body, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422", code, e.Error)
	}
	if s2.cache.len() != 0 {
		t.Errorf("failed build left %d cache entries", s2.cache.len())
	}
	if code := post(t, ts2, "/v1/evaluate", body, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("retry: status %d, want 422", code)
	}
	snap := s2.Metrics().Snapshot()
	if snap.Counters["build.compiles"] != 2 {
		t.Errorf("build.compiles=%d, want 2 (failed build must not be cached)", snap.Counters["build.compiles"])
	}
	// The unlimited server still works.
	var ok EvaluateResponse
	if code := post(t, ts, "/v1/evaluate", body, &ok); code != http.StatusOK {
		t.Fatalf("unlimited server: status %d", code)
	}
}

// TestLRUEviction: with capacity 1, a second distinct model evicts the
// first, and re-requesting the first rebuilds it.
func TestLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	ms2 := `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}}`
	tmr := fmt.Sprintf(`{"ftdsl": %q, "defects": {"lambda": 1, "alpha": 2}}`, tmrFTDSL)

	for _, body := range []string{ms2, tmr, ms2} {
		var r EvaluateResponse
		if code := post(t, ts, "/v1/evaluate", body, &r); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if r.CacheHit {
			t.Error("every request should miss: capacity 1 with alternating models")
		}
	}
	if s.cache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.cache.len())
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["cache.evictions"] != 2 {
		t.Errorf("cache.evictions=%d, want 2", snap.Counters["cache.evictions"])
	}
	if snap.Counters["build.compiles"] != 3 {
		t.Errorf("build.compiles=%d, want 3", snap.Counters["build.compiles"])
	}
}

// TestRequestTimeout: an already-expired deadline sheds the request
// with 503 before any evaluation work.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	time.Sleep(time.Millisecond) // ensure the deadline has passed once the handler runs
	var e errorResponse
	code := post(t, ts, "/v1/evaluate", `{"bench": "MS2", "defects": {"lambda": 1, "alpha": 2}}`, &e)
	if code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 503 or 504", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || buf.String() != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, buf.String())
	}
}

// TestGracefulShutdown: Serve drains and returns nil once the context
// is cancelled.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{ShutdownGrace: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
