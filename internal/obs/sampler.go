package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Sample is one point of the flight recorder's time series: the value
// of every counter, gauge and float gauge in the registry at one
// instant. Histograms and spans are deliberately excluded — they are
// cumulative structures whose trajectory the scalar series already
// implies, and copying them per tick would make sampling expensive.
type Sample struct {
	// UnixNano is the wall-clock sample time; OffsetSeconds the time
	// since the sampler started (convenient for plotting).
	UnixNano      int64              `json:"t_unix_nano"`
	OffsetSeconds float64            `json:"offset_seconds"`
	Counters      map[string]int64   `json:"counters,omitempty"`
	Gauges        map[string]int64   `json:"gauges,omitempty"`
	FloatGauges   map[string]float64 `json:"float_gauges,omitempty"`
}

// sampleScalars reads every scalar instrument. The mutex only guards
// the name maps; the values themselves are atomic loads, so sampling
// never blocks instrument updates.
func (r *Registry) sampleScalars(start time.Time) Sample {
	now := time.Now()
	s := Sample{UnixNano: now.UnixNano(), OffsetSeconds: now.Sub(start).Seconds()}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Load()
		}
	}
	if len(r.floats) > 0 {
		s.FloatGauges = make(map[string]float64, len(r.floats))
		for k, g := range r.floats {
			s.FloatGauges[k] = g.Load()
		}
	}
	return s
}

// Sampler is the flight recorder's time-series collector: a background
// goroutine that snapshots a registry's scalar instruments at a fixed
// interval into a bounded ring buffer. When the ring is full the
// oldest samples are overwritten, so a crash or a late dump always has
// the most recent window of the build — the flight-recorder
// discipline — and memory stays bounded no matter how long the process
// runs.
//
// All methods are safe for concurrent use and no-ops on a nil
// receiver; NewSampler on a nil registry returns nil, so a disabled
// recorder costs nothing.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	start    time.Time

	mu      sync.Mutex
	ring    []Sample
	next    int   // ring slot the next sample lands in
	count   int64 // total samples taken
	stopped bool

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// DefaultSampleInterval is the sampling period used when NewSampler is
// given a non-positive interval: fine enough to resolve GC pauses and
// phase transitions of multi-minute builds, coarse enough to cost
// nothing (~10 map copies per second).
const DefaultSampleInterval = 100 * time.Millisecond

// defaultSampleCapacity bounds the ring when NewSampler is given a
// non-positive capacity: 8192 samples ≈ 13 minutes at the default
// interval.
const defaultSampleCapacity = 8192

// NewSampler creates a sampler over reg. interval ≤ 0 selects
// DefaultSampleInterval; capacity ≤ 0 selects the default ring size.
// The sampler does not run until Start. A nil registry yields a nil
// (fully inert) sampler.
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = defaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		ring:     make([]Sample, 0, capacity),
		stop:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine (idempotent). The first
// sample is taken immediately, so even runs shorter than one interval
// record a point.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		s.sampleNow()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			tick := time.NewTicker(s.interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					s.sampleNow()
				case <-s.stop:
					return
				}
			}
		}()
	})
}

// Stop halts sampling and records one final sample, so the series
// always ends with the run's terminal state. Idempotent; safe to call
// without Start.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		s.sampleNow()
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
	})
}

func (s *Sampler) sampleNow() {
	sample := s.reg.sampleScalars(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sample)
	} else {
		s.ring[s.next] = sample
	}
	s.next = (s.next + 1) % cap(s.ring)
	s.count++
}

// Samples returns the retained samples in chronological order. Safe
// to call at any time, including while sampling continues. Nil on a
// nil receiver.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	if len(s.ring) < cap(s.ring) {
		return append(out, s.ring...)
	}
	out = append(out, s.ring[s.next:]...)
	return append(out, s.ring[:s.next]...)
}

// Dropped returns how many samples were overwritten because the ring
// was full — the amount of history the recording is missing.
func (s *Sampler) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count - int64(len(s.ring))
}

// WriteJSONL writes the retained samples as JSON Lines: one Sample
// object per line, chronological. The format streams into any
// time-series tooling (jq, pandas) without holding the whole file.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sample := range s.Samples() {
		if err := enc.Encode(sample); err != nil {
			return err
		}
	}
	return nil
}
