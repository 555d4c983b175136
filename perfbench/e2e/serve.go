package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socyield"
	"socyield/perfbench/harness"
)

// The serve workload's traffic. Hot keys are requested all the time
// and stay in the server's LRU; warm keys are evicted between uses and
// come back from the store; cold keys are new, so the server builds
// them.
const (
	HotEpsilon     = 1e-3
	ServeNodeLimit = 8 << 20
	SweepLambdas   = 16
	// SLOLimit is the hit-latency limit that slo_rps is judged by.
	SLOLimit = 20 * time.Millisecond
	// LRUSpare is how many models the server's LRU holds beyond the
	// hot set. harness.PlanClasses needs one spare slot when requests
	// arrive in plan order. Two connections can swap neighbouring
	// requests: an insertion can then arrive one request early and the
	// one before it one request late, so up to two hot keys miss their
	// touch between them, and each needs a slot of its own. Three is
	// the smallest value that works in both orders, as
	// TestPlanClassesMatchLRU checks.
	LRUSpare = 3
)

var (
	// HotSystems[0] also takes every sweep.
	HotSystems = []string{"ESEN4x2", "MS2", "MS4", "ESEN4x1", "ESEN4x4"}
	// Ladder is the open-loop rates, in requests per second. They
	// double from an eighth to a half of the closed-loop capacity on
	// hits, which was about 1,240 req/s over two connections on a 2-CPU
	// host. The top rung is there to locate slo_rps.
	Ladder = []float64{150, 300, 600}
	// ReportRate is the highest rung whose requests the latency
	// metrics pool. At a quarter of capacity or less, the connections
	// are idle most of the time, and queueing adds little to a median.
	ReportRate = 300.0
	// ReportShare is the share of the timed part the reported rungs
	// get between them. The rest goes to the top rung, whose hit tail
	// needs only 1,000 hits for a p99 with harness.MinBeyond samples
	// beyond it: under 2 s at 600 req/s, against 8 s in a RunSeconds
	// run.
	ReportShare = 0.8
	// ServeMix is derived from RunSeconds, MedianSamples and
	// SensPerRung by mixFor.
	ServeMix = mixFor(RunSeconds)
)

// The class shares of the stream are the smallest that give each class
// the samples below in a run of RunSeconds, the run_seconds of
// BENCHMARK.json (TestServeMix checks both).
const (
	RunSeconds = 40
	// MedianSamples is the number of requests that each rare class of
	// class_gmean_ms (sweep, warm, cold) gets in the reported rungs. By
	// harness.MedianSpread, the median of n samples whose middle half
	// spans r of the median varies by about 1.349·r/√n from run to run.
	// Over thirty runs on a 2-CPU host, r was at most 0.29 (sweeps and
	// builds) while the host was quiet, and at most 0.64 (any class)
	// while other tenants loaded it. The variation must stay within
	// half of a third of the 0.25 bound on the quiet host, leaving the
	// rest to the host, which takes n ≥ (1.349·0.3/0.042)² ≈ 93; and
	// within a third, 0.083, on the loaded one, which takes
	// n ≥ (1.349·0.64/0.083)² ≈ 108.
	MedianSamples = 110
	// SensPerRung is the number of sensitivity requests each rung
	// gets. They have no metric of their own: they check the
	// sensitivity path's answers and make each rung's hit tail include
	// the waits behind them.
	SensPerRung = 10
)

// serveRungs returns the rungs of a run of the given length: the
// reported rungs share ReportShare of it, the others the rest.
func serveRungs(seconds float64) []harness.Rung {
	low := 0
	for _, rate := range Ladder {
		if rate <= ReportRate {
			low++
		}
	}
	var rungs []harness.Rung
	for _, rate := range Ladder {
		share := ReportShare / float64(low)
		if rate > ReportRate {
			share = (1 - ReportShare) / float64(len(Ladder)-low)
		}
		rungs = append(rungs, harness.Rung{Rate: rate, Duration: time.Duration(share * seconds * float64(time.Second))})
	}
	return rungs
}

// mixFor returns the smallest class shares that give, in expectation,
// MedianSamples requests of each rare class in the reported rungs
// and SensPerRung sensitivity requests in the rung with the fewest
// requests.
func mixFor(seconds float64) harness.Mix {
	reported, fewest := 0.0, math.Inf(1)
	for _, r := range serveRungs(seconds) {
		n := r.Rate * r.Duration.Seconds()
		if r.Rate <= ReportRate {
			reported += n
		}
		fewest = min(fewest, n)
	}
	g := MedianSamples / reported
	return harness.Mix{Sens: SensPerRung / fewest, Sweep: g, Warm: g, Cold: g}
}

// Every key's model has M = ModelM, so that each class costs about the
// same whatever the seed. Warm and cold keys are all MissSystem, each
// under a fresh ε, so that every store load and every build costs about
// the same, and store_p50_ms and miss_p50_ms price loading and building
// one model.
const (
	ModelM     = 5
	MissSystem = "ESEN4x2"
	// WarmKeys are used in turn, so between two uses of one key the
	// others are inserted. With LRUSpare of them, the key has been
	// evicted by then; that is the fewest warm keys for which it holds.
	WarmKeys = LRUSpare + 1
)

// ModelSpec is what identifies one model key: the system, its defect
// law's (λ, α) and ε. Requests on a key vary only the lethalities.
type ModelSpec struct {
	System  string
	Lambda  float64
	Alpha   float64
	Epsilon float64
	Sys     *socyield.System
	// Key is the ModelKey the server computes for the spec, and M the
	// truncation point it resolves.
	Key string
	M   int
}

// Options returns the options the server resolves for the spec.
func (m *ModelSpec) Options() socyield.Options {
	o := Options(NB(m.Lambda, m.Alpha), m.Epsilon)
	o.NodeLimit = ServeNodeLimit
	return o
}

func newSpec(system string, lambda, alpha, eps float64) (*ModelSpec, error) {
	sys, err := SystemByName(system)
	if err != nil {
		return nil, err
	}
	m := &ModelSpec{System: system, Lambda: lambda, Alpha: alpha, Epsilon: eps, Sys: sys}
	m.Key, m.M, err = socyield.ModelKey(sys, m.Options())
	return m, err
}

// Request is one planned request of the serve workload.
type Request struct {
	Rung    int
	Due     time.Duration // from the start of its rung
	Class   harness.Class
	Spec    *ModelSpec
	Ps      []float64
	Lambdas []float64 // /v1/sweep only
	Path    string
	Body    []byte
}

// Wire format of yieldd, as a client sees it.
type defectSpec struct {
	Dist   string  `json:"dist"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
}

type evaluateRequest struct {
	Bench         string     `json:"bench"`
	Defects       defectSpec `json:"defects"`
	Epsilon       float64    `json:"epsilon"`
	Lethalities   []float64  `json:"lethalities"`
	Sensitivities bool       `json:"sensitivities,omitempty"`
}

type sweepRequest struct {
	Bench       string     `json:"bench"`
	Defects     defectSpec `json:"defects"`
	Epsilon     float64    `json:"epsilon"`
	Lethalities []float64  `json:"lethalities"`
	Lambdas     []float64  `json:"lambdas"`
	Workers     int        `json:"workers"`
}

type evaluateResponse struct {
	M             int     `json:"m"`
	Yield         float64 `json:"yield"`
	ErrorBound    float64 `json:"error_bound"`
	ModelKey      string  `json:"model_key"`
	CacheHit      bool    `json:"cache_hit"`
	ROMDDNodes    int     `json:"romdd_nodes"`
	Sensitivities []struct {
		DYieldDP float64 `json:"dyield_dp"`
	} `json:"sensitivities"`
}

type sweepResponse struct {
	M        int    `json:"m"`
	ModelKey string `json:"model_key"`
	CacheHit bool   `json:"cache_hit"`
	Results  []struct {
		Lambda     float64 `json:"lambda"`
		Yield      float64 `json:"yield"`
		ErrorBound float64 `json:"error_bound"`
		Error      string  `json:"error"`
	} `json:"results"`
}

func newRequest(class harness.Class, spec *ModelSpec, ps, lambdas []float64) (*Request, error) {
	rq := &Request{Class: class, Spec: spec, Ps: ps, Lambdas: lambdas, Path: "/v1/evaluate"}
	d := defectSpec{Dist: "negative-binomial", Lambda: spec.Lambda, Alpha: spec.Alpha}
	var v any = evaluateRequest{Bench: spec.System, Defects: d, Epsilon: spec.Epsilon, Lethalities: ps, Sensitivities: class == harness.Sens}
	if class == harness.Sweep {
		rq.Path = "/v1/sweep"
		// One worker per sweep: the two connections already keep both
		// CPUs busy, and a sweep that grabs both stalls the other one.
		v = sweepRequest{Bench: spec.System, Defects: d, Epsilon: spec.Epsilon, Lethalities: ps, Lambdas: lambdas, Workers: 1}
	}
	var err error
	rq.Body, err = json.Marshal(v)
	return rq, err
}

// ServePlan is the whole request stream of one serve run.
type ServePlan struct {
	Hot, Warm, Cold []*ModelSpec
	Rungs           []harness.Rung
	Requests        [][]*Request // by rung
}

// PlanServe draws the serve workload's keys and request stream from
// the seed. Each request's lethalities are checked to leave its model
// key unchanged, so the class the plan gives a request is the class
// the server sees.
func PlanServe(seed uint64, seconds int) (*ServePlan, error) {
	p := &ServePlan{}
	keys := map[string]bool{}
	// draw returns a new key for system with M = ModelM: the defect
	// law's (λ, α), and ε unless fixed, are drawn until M is right, so
	// that the seed changes the inputs but not the size of the models.
	draw := func(rng *rand.Rand, system string, fixedEps float64) (*ModelSpec, error) {
		for try := 0; try < 100; try++ {
			eps := fixedEps
			if eps == 0 {
				eps = HotEpsilon * (1 + rng.Float64())
			}
			m, err := newSpec(system, 0.6+1.2*rng.Float64(), 1.5+2.5*rng.Float64(), eps)
			if err != nil {
				return nil, err
			}
			if m.M == ModelM && !keys[m.Key] {
				keys[m.Key] = true
				return m, nil
			}
		}
		return nil, fmt.Errorf("serve: no new %s key with M = %d drawn", system, ModelM)
	}
	rng := harness.NewRand(seed, streamServeSpecs)
	for _, s := range HotSystems {
		m, err := draw(rng, s, HotEpsilon)
		if err != nil {
			return nil, err
		}
		p.Hot = append(p.Hot, m)
	}
	for i := 0; i < WarmKeys; i++ {
		m, err := draw(rng, MissSystem, 0)
		if err != nil {
			return nil, err
		}
		p.Warm = append(p.Warm, m)
	}

	p.Rungs = serveRungs(float64(seconds))
	dues := harness.Schedule(harness.NewRand(seed, streamServeSchedule), p.Rungs)
	total := 0
	for _, d := range dues {
		total += len(d)
	}
	slots := harness.PlanClasses(harness.NewRand(seed, streamServeClasses), total, len(p.Hot), len(p.Warm), ServeMix)

	coldRng := harness.NewRand(seed, streamServeCold)
	psRng := harness.NewRand(seed, streamServeLethality)
	sweepRng := harness.NewRand(seed, streamServeSweep)
	n := 0
	for r, ds := range dues {
		var reqs []*Request
		for _, due := range ds {
			s := slots[n]
			n++
			var spec *ModelSpec
			switch s.Class {
			case harness.Warm:
				spec = p.Warm[s.Key]
			case harness.Cold:
				var err error
				if spec, err = draw(coldRng, MissSystem, 0); err != nil {
					return nil, err
				}
				p.Cold = append(p.Cold, spec)
			default:
				spec = p.Hot[s.Key]
			}
			ps, err := keyedLethalities(psRng, spec)
			if err != nil {
				return nil, err
			}
			var lambdas []float64
			if s.Class == harness.Sweep {
				for i := 0; i < SweepLambdas; i++ {
					lambdas = append(lambdas, 0.5+2.5*sweepRng.Float64())
				}
			}
			rq, err := newRequest(s.Class, spec, ps, lambdas)
			if err != nil {
				return nil, err
			}
			rq.Rung, rq.Due = r, due
			reqs = append(reqs, rq)
		}
		p.Requests = append(p.Requests, reqs)
	}
	return p, nil
}

// keyedLethalities draws P_i within ±20% of the system's own, with
// P_L kept, and checks that they leave the model key unchanged. After
// a few draws that all move M it falls back to the system's P_i.
func keyedLethalities(rng *rand.Rand, spec *ModelSpec) ([]float64, error) {
	base := Lethalities(spec.Sys)
	for try := 0; try < 8; try++ {
		ps := perturbKeepPL(rng, base, 0.2)
		key, _, err := socyield.ModelKey(WithLethalities(spec.Sys, ps), spec.Options())
		if err != nil {
			return nil, err
		}
		if key == spec.Key {
			return ps, nil
		}
	}
	return base, nil
}

// ServeEnv is one set-up serve workload: the plan, the reference
// models the responses are checked against, and a yieldd instance
// under httptest with its store.
type ServeEnv struct {
	Plan   *ServePlan
	Refs   map[*ModelSpec]*socyield.Reevaluator
	Dir    string
	Store  *socyield.ModelStore
	Server *httptest.Server
	Client *http.Client
}

// NewServeEnv plans the stream, builds the reference models of the
// hot and warm keys, starts the server on an empty store, writes those
// models to the store, and primes the LRU: the warm keys in order, then
// the hot keys, all loaded from the store.
func NewServeEnv(seed uint64, seconds int, tl *harness.Tally) (*ServeEnv, error) {
	plan, err := PlanServe(seed, seconds)
	if err != nil {
		return nil, err
	}
	e := &ServeEnv{Plan: plan, Refs: map[*ModelSpec]*socyield.Reevaluator{}}
	for _, m := range append(append([]*ModelSpec(nil), plan.Hot...), plan.Warm...) {
		if e.Refs[m], err = socyield.NewReevaluator(m.Sys, m.Options()); err != nil {
			return nil, err
		}
	}
	if e.Dir, err = ScratchDir("serve-store-"); err != nil {
		return nil, err
	}
	// The store and the server share one registry, so /metrics shows
	// the store's counters.
	metrics := socyield.NewMetrics()
	if e.Store, err = socyield.OpenModelStore(e.Dir, 0, metrics); err != nil {
		e.Close()
		return nil, err
	}
	cfg := socyield.ServerConfig{
		CacheEntries: len(plan.Hot) + LRUSpare,
		NodeLimit:    ServeNodeLimit,
		Store:        e.Store,
		Metrics:      metrics,
	}
	harness.PinSerialBuild(&cfg)
	e.Server = httptest.NewServer(socyield.NewEvaluationServer(cfg).Handler())
	n := Workers()
	e.Client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}
	for m, re := range e.Refs {
		snap := re.Snapshot()
		snap.ModelKey = m.Key
		data, err := socyield.EncodeModel(snap)
		if err == nil {
			err = e.Store.Put(m.Key, data)
		}
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	prime := func(specs []*ModelSpec) error {
		for _, m := range specs {
			rq, err := newRequest(harness.Warm, m, Lethalities(m.Sys), nil)
			if err != nil {
				return err
			}
			status, body, err := e.Post(rq)
			if err := e.Verify(rq, status, body, err); !tl.Check(err == nil) {
				return fmt.Errorf("priming %s: %w", m.System, err)
			}
		}
		return nil
	}
	// Every priming request loads its model from the store, like a
	// warm request. The hot keys go last, so they are the most recent
	// entries of the LRU, as the plan assumes.
	if err := prime(append(append([]*ModelSpec(nil), plan.Warm...), plan.Hot...)); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Close stops the server and removes the store.
func (e *ServeEnv) Close() {
	if e.Server != nil {
		e.Server.Close()
	}
	if e.Client != nil {
		e.Client.CloseIdleConnections()
	}
	if e.Dir != "" {
		os.RemoveAll(e.Dir)
	}
}

// Post sends one request and returns the status and body.
func (e *ServeEnv) Post(rq *Request) (int, []byte, error) {
	resp, err := e.Client.Post(e.Server.URL+rq.Path, "application/json", bytes.NewReader(rq.Body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ref returns the reference model of a spec, building it on first use
// (the cold keys are built only after the timed part).
func (e *ServeEnv) ref(m *ModelSpec) (*socyield.Reevaluator, error) {
	if re := e.Refs[m]; re != nil {
		return re, nil
	}
	re, err := socyield.NewReevaluator(m.Sys, m.Options())
	if err == nil {
		e.Refs[m] = re
	}
	return re, err
}

// Verify checks one response against a direct evaluation on the
// reference model with the same inputs. Yields, bounds and
// sensitivities must be equal (==), and cache_hit must match the
// request's class.
func (e *ServeEnv) Verify(rq *Request, status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	re, err := e.ref(rq.Spec)
	if err != nil {
		return err
	}
	wantHit := rq.Class == harness.Hit || rq.Class == harness.Sens || rq.Class == harness.Sweep
	if rq.Class == harness.Sweep {
		var got sweepResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.M != re.M() || got.ModelKey != rq.Spec.Key || got.CacheHit != wantHit || len(got.Results) != len(rq.Lambdas) {
			return fmt.Errorf("sweep on %s: m=%d key ok=%v cache_hit=%v points=%d", rq.Spec.System,
				got.M, got.ModelKey == rq.Spec.Key, got.CacheHit, len(got.Results))
		}
		for i, l := range rq.Lambdas {
			y, b, err := re.Yield(rq.Ps, NB(l, rq.Spec.Alpha))
			pt := got.Results[i]
			if err != nil || pt.Error != "" || pt.Lambda != l || pt.Yield != y || pt.ErrorBound != b {
				return fmt.Errorf("sweep on %s point %d: got %+v, want yield %v bound %v (%v)", rq.Spec.System, i, pt, y, b, err)
			}
		}
		return nil
	}
	var got evaluateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	dist := NB(rq.Spec.Lambda, rq.Spec.Alpha)
	y, b, err := re.Yield(rq.Ps, dist)
	if err != nil {
		return err
	}
	if got.M != re.M() || got.ModelKey != rq.Spec.Key || got.CacheHit != wantHit ||
		got.ROMDDNodes != re.Result.ROMDDSize || got.Yield != y || got.ErrorBound != b {
		return fmt.Errorf("%v on %s: got m=%d key ok=%v cache_hit=%v nodes=%d yield=%v bound=%v, want m=%d cache_hit=%v nodes=%d yield=%v bound=%v",
			rq.Class, rq.Spec.System, got.M, got.ModelKey == rq.Spec.Key, got.CacheHit, got.ROMDDNodes, got.Yield, got.ErrorBound,
			re.M(), wantHit, re.Result.ROMDDSize, y, b)
	}
	if rq.Class == harness.Sens {
		ds, err := re.Sensitivities(rq.Ps, dist, 0)
		if err != nil {
			return err
		}
		if len(ds) != len(got.Sensitivities) {
			return fmt.Errorf("sens on %s: %d values, want %d", rq.Spec.System, len(got.Sensitivities), len(ds))
		}
		for i, d := range ds {
			if got.Sensitivities[i].DYieldDP != d {
				return fmt.Errorf("sens on %s component %d: %v, want %v", rq.Spec.System, i, got.Sensitivities[i].DYieldDP, d)
			}
		}
	}
	return nil
}

// Outcome is what happened to one request. Times are from the start
// of its rung.
type Outcome struct {
	Status int
	Body   []byte
	Err    error
	// Sent is when the generator queued the request for a connection,
	// Picked when a connection took it, Done when its response had
	// been read.
	Sent, Picked, Done time.Duration
}

// runLadder drives the server open loop through every rung in turn:
// each request is queued at its due time, whatever the state of the
// earlier ones, and Workers() connections take requests from the
// queue. A rung starts once the previous one has drained. It also
// returns the heap peaks, in MB, of the one-second windows of the
// reported rungs.
func (e *ServeEnv) runLadder() ([][]Outcome, []float64) {
	out := make([][]Outcome, len(e.Plan.Requests))
	var heapMB []float64
	for r, reqs := range e.Plan.Requests {
		if e.Plan.Rungs[r].Rate > ReportRate {
			out[r] = e.runRung(reqs)
			continue
		}
		for _, b := range harness.PeakWindows(time.Millisecond, time.Second, func() { out[r] = e.runRung(reqs) }) {
			heapMB = append(heapMB, harness.MB(b))
		}
	}
	return out, heapMB
}

func (e *ServeEnv) runRung(reqs []*Request) []Outcome {
	outs := make([]Outcome, len(reqs))
	// Sized to the rung so that queueing a request never blocks the
	// generator, however far the connections fall behind.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &outs[i]
				o.Picked = time.Since(start)
				o.Status, o.Body, o.Err = e.Post(reqs[i])
				o.Done = time.Since(start)
			}
		}()
	}
	for i, rq := range reqs {
		if d := time.Until(start.Add(rq.Due)); d > 0 {
			time.Sleep(d)
		}
		outs[i].Sent = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// serverCounters reads the counters of /metrics whose names are given
// without the socyield_ prefix.
func (e *ServeEnv) serverCounters(names ...string) (map[string]float64, error) {
	resp, err := e.Client.Get(e.Server.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want["socyield_"+n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[strings.TrimPrefix(name, "socyield_")] = v
	}
	return out, sc.Err()
}

// ServeRun is the result of one timed ladder.
type ServeRun struct {
	Outcomes [][]Outcome
	// Compiles and StoreLoads are the server's counts of builds and
	// store hits during the ladder.
	Compiles, StoreLoads float64
	// ByClass counts the requests of each class.
	ByClass map[harness.Class]int
	// HeapMB are the heap peaks of the reported rungs' one-second
	// windows.
	HeapMB []float64
}

// Run drives the ladder, then checks every response and the server's
// counters against the plan. Each request is one operation; the
// counter check is one more.
func (e *ServeEnv) Run(tl *harness.Tally) (*ServeRun, error) {
	names := []string{"build_compiles", "store_hits"}
	before, err := e.serverCounters(names...)
	if err != nil {
		return nil, err
	}
	run := &ServeRun{ByClass: map[harness.Class]int{}}
	run.Outcomes, run.HeapMB = e.runLadder()
	after, err := e.serverCounters(names...)
	if err != nil {
		return nil, err
	}
	run.Compiles = after["build_compiles"] - before["build_compiles"]
	run.StoreLoads = after["store_hits"] - before["store_hits"]

	// The cold keys' reference models are built only now, after the
	// timed part; then the responses are checked on Workers() goroutines.
	for _, m := range e.Plan.Cold {
		if _, err := e.ref(m); err != nil {
			return nil, err
		}
	}
	type item struct {
		rq *Request
		o  *Outcome
	}
	var items []item
	for r, reqs := range e.Plan.Requests {
		for i, rq := range reqs {
			run.ByClass[rq.Class]++
			items = append(items, item{rq, &run.Outcomes[r][i]})
		}
	}
	var next, reported atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(items); i = int(next.Add(1)) - 1 {
				it := items[i]
				if err := e.Verify(it.rq, it.o.Status, it.o.Body, it.o.Err); !tl.Check(err == nil) {
					if reported.Add(1) <= 5 {
						fmt.Fprintln(os.Stderr, "serve:", err)
					}
					it.o.Err = errors.Join(it.o.Err, err)
				}
			}
		}()
	}
	wg.Wait()
	ok := run.Compiles == float64(run.ByClass[harness.Cold]) && run.StoreLoads == float64(run.ByClass[harness.Warm])
	if !tl.Check(ok) {
		fmt.Fprintf(os.Stderr, "serve: server counted %v builds and %v store loads for %d cold and %d warm requests\n",
			run.Compiles, run.StoreLoads, run.ByClass[harness.Cold], run.ByClass[harness.Warm])
	}
	return run, nil
}

func latencyMS(rq *Request, o *Outcome) float64 {
	if o.Err != nil {
		return math.Inf(1) // a failed request misses every limit
	}
	return Millis(o.Done - rq.Due)
}

// RungStats summarises one rung.
type RungStats struct {
	Rate     float64 // offered: requests scheduled / rung duration
	Hit      harness.TailStat
	HitP50   float64
	Backlog  time.Duration // how long the rung's last request waited for a connection
	Failed   int
	MeetsSLO bool
}

// rungStats summarises each rung: a rung meets the SLO when its hit tail
// percentile is within SLOLimit, no request failed, and its last
// request waited less than SLOLimit for a connection (no growing
// backlog).
func (e *ServeEnv) rungStats(run *ServeRun) []RungStats {
	var out []RungStats
	for r, reqs := range e.Plan.Requests {
		var hits []float64
		st := RungStats{Rate: float64(len(reqs)) / e.Plan.Rungs[r].Duration.Seconds()}
		for i, rq := range reqs {
			o := &run.Outcomes[r][i]
			if o.Err != nil {
				st.Failed++
			}
			if rq.Class == harness.Hit {
				hits = append(hits, latencyMS(rq, o))
			}
		}
		if n := len(reqs); n > 0 {
			st.Backlog = run.Outcomes[r][n-1].Picked - reqs[n-1].Due
		}
		st.HitP50 = harness.Median(hits)
		var err error
		st.Hit, err = harness.Tail(hits, 99)
		st.MeetsSLO = err == nil && st.Failed == 0 && st.Hit.Value <= Millis(SLOLimit) && st.Backlog < SLOLimit
		out = append(out, st)
	}
	return out
}

// sloRate returns the offered rate at which the hit tail latency
// reaches SLOLimit. Below the first rung that misses the SLO, it
// interpolates log(rate) linearly in log(hit tail) between that rung
// and the one before, which keeps the value continuous as a rung moves
// across the limit. It is the last rung's rate when every rung meets
// the SLO, and 0 when the first does not.
func sloRate(rungs []RungStats) float64 {
	for i, st := range rungs {
		if st.MeetsSLO {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := rungs[i-1]
		f := math.Log(Millis(SLOLimit)/lo.Hit.Value) / math.Log(st.Hit.Value/lo.Hit.Value)
		if math.IsNaN(f) || f < 0 {
			f = 0
		}
		return lo.Rate * math.Pow(st.Rate/lo.Rate, math.Min(f, 1))
	}
	return rungs[len(rungs)-1].Rate
}

// ServeMetrics computes the serve workload's end-to-end metrics and
// prints the per-rung table and the sample counts behind them. The
// classes are hits (the main class), store loads, misses and sweeps,
// each a median over the reported rungs; sensitivity requests are too
// few for a steady median of their own. peak_heap_mb is the median of
// the one-second heap peaks of the reported rungs.
//
// hit_p99_ms and slo_rps are printed but kept out of the returned
// metrics. On a 2-CPU host their run-to-run spread was too wide to
// gate on: in three sets of ten seeds, their interquartile range was
// 0.13 to 0.84 and 0.02 to 0.40 of the median. With two
// connections, the hit tail is set by the few moments when both connections are busy with a slow request (a build
// or a sensitivity vector).
func (e *ServeEnv) ServeMetrics(run *ServeRun, setup float64, w io.Writer) (map[string]harness.Metric, error) {
	rungs := e.rungStats(run)
	fmt.Fprintf(w, "%8s %7s %10s %22s %10s %6s %s\n", "rate", "reqs", "hit_p50", "hit_tail", "backlog", "failed", "meets_slo")
	for r, st := range rungs {
		fmt.Fprintf(w, "%8.1f %7d %8.3fms %8.3fms (p%.2f n=%d) %8.3fms %6d %v\n", st.Rate, len(e.Plan.Requests[r]),
			st.HitP50, st.Hit.Value, st.Hit.Percentile, st.Hit.N, Millis(st.Backlog), st.Failed, st.MeetsSLO)
	}
	byClass := map[harness.Class][]float64{}
	for r, reqs := range e.Plan.Requests {
		if e.Plan.Rungs[r].Rate > ReportRate {
			continue
		}
		for i, rq := range reqs {
			byClass[rq.Class] = append(byClass[rq.Class], latencyMS(rq, &run.Outcomes[r][i]))
		}
	}
	hitTail, err := harness.Tail(byClass[harness.Hit], 99)
	if err != nil {
		return nil, fmt.Errorf("hit latency: %w", err)
	}
	fmt.Fprintf(w, "latencies pooled over rungs up to %v req/s (n, and the median's estimated run-to-run spread):\n", ReportRate)
	for _, c := range []harness.Class{harness.Hit, harness.Sens, harness.Sweep, harness.Warm, harness.Cold} {
		fmt.Fprintf(w, "  %-5v n=%-5d spread %.3f\n", c, len(byClass[c]), harness.MedianSpread(byClass[c]))
	}
	fmt.Fprintf(w, "%-36s %14.6g ms (p%.2f of %d hits; printed only)\n", "hit_p99_ms", hitTail.Value, hitTail.Percentile, hitTail.N)
	fmt.Fprintf(w, "%-36s %14.6g req/s (hit tail limit %v; printed only)\n", "slo_rps", sloRate(rungs), SLOLimit)
	var classMS []float64
	for _, c := range []struct {
		name  string
		class harness.Class
	}{{"hit_p50_ms", harness.Hit}, {"store_p50_ms", harness.Warm}, {"miss_p50_ms", harness.Cold}, {"sweep_p50_ms", harness.Sweep}} {
		ms := harness.Median(byClass[c.class])
		fmt.Fprintf(w, "%-36s %14.6g ms (%d requests; a class of class_gmean_ms)\n", c.name, ms, len(byClass[c.class]))
		classMS = append(classMS, ms)
	}
	heap := harness.Median(run.HeapMB)
	fmt.Fprintf(w, "peak heap: median of %d one-second windows %.1f MB, largest %.1f MB\n", len(run.HeapMB), heap, slices.Max(run.HeapMB))
	return EndToEnd(classMS[0], classMS, heap, setup), nil
}

// setupServe sets the serve workload up three times, closing all but
// the last, and returns it with the median set-up time.
func setupServe(a harness.Args, tl *harness.Tally) (*ServeEnv, float64, error) {
	var env *ServeEnv
	setup, err := SetupTimes(3, func() error {
		if env != nil {
			env.Close()
		}
		var err error
		env, err = NewServeEnv(a.Seed, a.Seconds, tl)
		return err
	})
	return env, setup, err
}

// RunServe is the serve workload.
func RunServe(a harness.Args, tl *harness.Tally, w io.Writer) (map[string]harness.Metric, error) {
	env, setup, err := setupServe(a, tl)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	runtime.GC() // the set-up's garbage, collected before the timed part
	run, err := env.Run(tl)
	if err != nil {
		return nil, err
	}
	return env.ServeMetrics(run, setup, w)
}
