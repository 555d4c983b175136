// Package server implements yieldd, the HTTP/JSON evaluation service
// for the combinatorial yield method: clients POST a system (an ftdsl
// description or a named benchmark) together with a defect model and
// get back the yield, its error bound and optionally per-component
// sensitivities — without linking the Go library or paying the
// decision-diagram build on every call.
//
// The expensive part of a request is compiling the model: synthesizing
// G, ordering its variables, building the coded ROBDD and converting
// it to the ROMDD. That work depends only on the fault-tree structure,
// the orderings, ε and the truncation point M — not on the lethality
// values or the defect distribution — so the server keys compiled
// models by yield.ModelKey and keeps them in an LRU cache with
// single-flight deduplication. A request whose model is cached costs
// one linear ROMDD traversal (microseconds); concurrent identical
// requests compile once.
//
// Endpoints:
//
//	POST /v1/evaluate   evaluate one model (yield, bound, sensitivities)
//	POST /v1/sweep      evaluate a λ grid on one shared compiled model
//	GET  /v1/builds     in-flight model builds (phase, progress, ETA)
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition of the obs registry
//
// Every response carries an X-Request-Id header (client-supplied or
// generated); the same id appears in the request log line, and
// requests slower than Config.SlowRequestThreshold additionally log at
// warning level.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"socyield/internal/obs"
	"socyield/internal/store"
)

// Config configures a Server. The zero value listens on :8344 with
// sensible limits.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8344").
	Addr string
	// CacheEntries bounds the number of compiled models kept (default
	// 32; minimum 1). Each entry's decision diagrams are additionally
	// bounded by NodeLimit.
	CacheEntries int
	// NodeLimit is the decision-diagram node budget per compiled model
	// (default 8M nodes ≈ a few hundred MB peak; 0 keeps the default,
	// negative means unlimited).
	NodeLimit int
	// MaxConcurrent bounds requests evaluated simultaneously (default
	// 2×GOMAXPROCS). Excess requests wait — bounded by their timeout.
	MaxConcurrent int
	// RequestTimeout bounds one request end to end, including any
	// model compile it waits on (default 60s).
	RequestTimeout time.Duration
	// SweepWorkers caps the worker pool a /v1/sweep request may ask
	// for (default GOMAXPROCS).
	SweepWorkers int
	// Store, when non-nil, is the persistent second cache tier: on an
	// LRU miss the server tries a stored compiled model before
	// rebuilding, writes freshly compiled models through, and
	// warm-starts the cache from the newest stored models at
	// construction. Open it with store.Open so the server, the store
	// and /metrics share one registry.
	Store *store.Store
	// Metrics receives request, cache and evaluation counters. A new
	// registry is created when nil; it is served on /metrics either
	// way.
	Metrics *obs.Registry
	// Tracer, when non-nil, records the per-gate build events of every
	// model compile for the Chrome trace export (yieldd -trace-out).
	Tracer *obs.Tracer
	// SlowRequestThreshold is the duration beyond which a request is
	// additionally logged at warning level (default 10s; negative
	// disables slow-request logging).
	SlowRequestThreshold time.Duration
	// Logger receives one structured line per request. Nil discards.
	Logger *slog.Logger
	// ShutdownGrace bounds the drain on shutdown (default 10s).
	ShutdownGrace time.Duration
}

// Limits on input from outside: the grid size of one sweep request
// and the size of one request body.
const (
	maxSweepPoints = 4096
	maxBodyBytes   = 1 << 20
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8344"
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 32
	}
	if c.NodeLimit == 0 {
		c.NodeLimit = 8 << 20
	} else if c.NodeLimit < 0 {
		c.NodeLimit = 0 // yield.Options: 0 = unlimited
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.SlowRequestThreshold == 0 {
		c.SlowRequestThreshold = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	return c
}

// Server is the yieldd HTTP service. Create with New; it is ready to
// serve immediately (Handler for embedding into an existing server,
// ListenAndServe to run standalone).
type Server struct {
	cfg    Config
	cache  *modelCache
	builds *buildTracker
	sem    chan struct{}
	mux    *http.ServeMux
	reqSeq atomic.Uint64

	requests  *obs.Counter
	errors4xx *obs.Counter
	errors5xx *obs.Counter
	slow      *obs.Counter
	inflight  *obs.Gauge
	latency   *obs.Histogram

	// testBuildHook, when set, runs at the start of every model build
	// with the build's BuildState. Tests use it to pin a build at a
	// known phase/progress and hold it there while they poll
	// /v1/builds; it must never be set in production.
	testBuildHook func(*obs.BuildState)
}

// New returns a Server for the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rec := cfg.Metrics
	s := &Server{
		cfg:       cfg,
		cache:     newModelCache(cfg.CacheEntries, rec),
		builds:    newBuildTracker(rec),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		mux:       http.NewServeMux(),
		requests:  rec.Counter("http.requests"),
		errors4xx: rec.Counter("http.errors_4xx"),
		errors5xx: rec.Counter("http.errors_5xx"),
		slow:      rec.Counter("http.slow_requests"),
		inflight:  rec.Gauge("http.inflight"),
		latency:   rec.Histogram("http.request_ns"),
	}
	s.mux.HandleFunc("POST /v1/evaluate", s.limited(s.handleEvaluate))
	s.mux.HandleFunc("POST /v1/sweep", s.limited(s.handleSweep))
	s.mux.HandleFunc("GET /v1/builds", s.handleBuilds)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.Handle("GET /metrics", rec.PrometheusHandler("socyield"))
	s.warmStart()
	return s
}

// Metrics returns the server's registry (the one /metrics serves).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// requestIDKey carries the request id through the handler context.
type requestIDKey struct{}

// requestID returns the id assigned to the request by Handler ("" when
// the middleware did not run).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// endpointLabel maps a request path onto the bounded label set the
// per-endpoint latency histograms use; unknown paths share "other" so
// path probing cannot grow the registry without bound.
func endpointLabel(path string) string {
	switch path {
	case "/v1/evaluate":
		return "evaluate"
	case "/v1/sweep":
		return "sweep"
	case "/v1/builds":
		return "builds"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

// Handler returns the server's HTTP handler with request-id
// propagation, request logging and instrumentation applied — mount it
// anywhere.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Honor a client-supplied id (so the caller can correlate its
		// own logs) or mint a unique one; either way it comes back in
		// the response header, flows through the context into the
		// build's log lines, and tags every log line for the request.
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 128 {
			id = fmt.Sprintf("req-%d-%d", start.UnixNano(), s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		s.requests.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.latency.Observe(int64(dur))
		s.cfg.Metrics.Histogram("http.latency_ns." + endpointLabel(r.URL.Path)).Observe(int64(dur))
		switch {
		case sw.status >= 500:
			s.errors5xx.Inc()
		case sw.status >= 400:
			s.errors4xx.Inc()
		}
		level := slog.LevelInfo
		msg := "request"
		if s.cfg.SlowRequestThreshold > 0 && dur >= s.cfg.SlowRequestThreshold {
			s.slow.Inc()
			level = slog.LevelWarn
			msg = "slow request"
		}
		s.cfg.Logger.LogAttrs(r.Context(), level, msg,
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", dur),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// statusWriter records the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// limited wraps an evaluation handler with the per-request timeout and
// the concurrency limiter. Waiting for a slot counts against the
// request's deadline, so a saturated server sheds load with 503s
// instead of queueing without bound.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if err := ctx.Err(); err != nil {
			writeError(w, http.StatusServiceUnavailable, "request deadline expired before evaluation started")
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			writeError(w, http.StatusServiceUnavailable, "server saturated: no evaluation slot within the request timeout")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r.WithContext(ctx))
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// in-flight requests for up to ShutdownGrace before returning. The
// returned error is nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	s.cfg.Logger.Info("shutting down", slog.Duration("grace", s.cfg.ShutdownGrace))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on Config.Addr and calls Serve. Cancel ctx
// (e.g. from a SIGTERM handler) for a graceful drain-and-stop.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.cfg.Logger.Info("listening", slog.String("addr", ln.Addr().String()))
	return s.Serve(ctx, ln)
}
