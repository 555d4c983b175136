// Package obs is the instrumentation layer of the yield pipeline: a
// lightweight metrics registry (atomic counters, gauges and histograms
// with fixed log-scale buckets) that the BDD → MDD → yield phases
// report into, exported as JSON or in the Prometheus text format; a
// bounded event ring (Tracer) that records each build phase and each
// compiled gate once, exported as a Chrome trace; the live state of a
// build in flight (BuildState); and progress lines for long
// Monte-Carlo runs.
//
// # Overhead discipline
//
// The registry is designed so that instrumented code stays fast and
// un-instrumented code stays free:
//
//   - Every method of every type is a no-op on a nil receiver, so call
//     sites may hold nil handles when metrics are disabled and still
//     call them unconditionally.
//   - Hot paths (per-point sweep evaluation, per-chunk simulation)
//     additionally guard on `rec != nil` so that the disabled path costs
//     one predictable branch and no time.Now() calls.
//   - Counter/Gauge/Histogram updates are single atomic operations with
//     no allocation; name lookup (the only map access) happens once per
//     phase, never per operation — callers resolve their instruments up
//     front and hold the pointers.
//
// The decision-diagram engines themselves (package bdd, mdd) count with
// plain non-atomic fields, because construction is single-threaded by
// contract; the pipeline flushes those totals into a Registry at phase
// boundaries.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value.
type Gauge struct{ v atomic.Int64 }

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (atomic; n may be negative). No-op on a
// nil receiver. Use for gauges tracking a fluctuating population
// (in-flight requests, queue depths).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger (atomic high-water mark).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float64 value (ratios, rates).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *FloatGauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// counts observations v with 2^i ≤ v < 2^(i+1) (bucket 0 also takes
// v < 1, the last bucket takes everything above). 48 buckets cover
// nanosecond durations up to ~3.2 days.
const histBuckets = 48

// Histogram accumulates an integer-valued distribution into fixed
// powers-of-two buckets. All updates are lock-free atomics.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its log2 bucket index.
func bucketOf(v int64) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1 // floor(log2 v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketBounds returns the [lo, hi) range of bucket i; the last
// bucket's hi is math.MaxInt64.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 2
	}
	if i >= histBuckets-1 {
		return 1 << (histBuckets - 1), math.MaxInt64
	}
	return 1 << i, 2 << i
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of instruments. Instruments are
// created on first use and live for the registry's lifetime; resolving
// one is a mutex-guarded map lookup, so callers should resolve once per
// phase and reuse the pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	floats   map[string]*FloatGauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		floats:   make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.floats[name]
	if !ok {
		g = &FloatGauge{}
		r.floats[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// Buckets lists only the non-empty buckets.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket: values in [Lo, Hi).
type BucketSnapshot struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// It marshals to the JSON document -metrics-json emits.
type Snapshot struct {
	Counters    map[string]int64             `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	FloatGauges map[string]float64           `json:"float_gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current state of every instrument. Safe to call
// concurrently with updates (values are read atomically). A nil
// registry snapshots to the zero value.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	floats := make(map[string]*FloatGauge, len(r.floats))
	for k, v := range r.floats {
		floats[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			snap.Counters[k] = v.Load()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			snap.Gauges[k] = v.Load()
		}
	}
	if len(floats) > 0 {
		snap.FloatGauges = make(map[string]float64, len(floats))
		for k, v := range floats {
			snap.FloatGauges[k] = v.Load()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
			if hs.Count > 0 {
				hs.Mean = float64(hs.Sum) / float64(hs.Count)
			}
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					lo, hi := BucketBounds(i)
					hs.Buckets = append(hs.Buckets, BucketSnapshot{Lo: lo, Hi: hi, Count: n})
				}
			}
			snap.Histograms[k] = hs
		}
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
