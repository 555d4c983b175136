package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceEvent is one timed slice of work attributed to a worker, such
// as one compiled gate. Events land on per-worker tracks in the Chrome
// trace export, with Args as the slice's arguments.
type TraceEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Worker int            `json:"worker"`
	Start  time.Time      `json:"start"`
	Dur    time.Duration  `json:"dur"`
	Args   map[string]any `json:"args,omitempty"`
}

// Tracer collects TraceEvents into a bounded ring buffer, overwriting
// the oldest when full (same flight-recorder discipline as Sampler).
// Recording is one short mutex-guarded slot write, and every method is
// a no-op on a nil receiver, so disabled tracing costs only a nil
// check on the hot path.
type Tracer struct {
	mu    sync.Mutex
	ring  []TraceEvent
	next  int
	count int64
}

// defaultTraceCapacity bounds the event ring when NewTracer is given a
// non-positive capacity. 1<<16 events ≈ 5 MB retained — enough for
// every chunk of an ESEN-scale build.
const defaultTraceCapacity = 1 << 16

// NewTracer returns a tracer with the given ring capacity (≤ 0 selects
// the default).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{ring: make([]TraceEvent, 0, capacity)}
}

// Event records one work slice; args may be nil. No-op on a nil
// receiver.
func (t *Tracer) Event(name, cat string, worker int, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	ev := TraceEvent{Name: name, Cat: cat, Worker: worker, Start: start, Dur: dur, Args: args}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.count++
	t.mu.Unlock()
}

// Events returns the retained events in recording order. Nil on a nil
// receiver.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Dropped returns how many events were overwritten because the ring
// was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count - int64(len(t.ring))
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (the subset Perfetto and chrome://tracing load): "M" metadata, "X"
// complete events, "C" counter series. ts/dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracePid is the synthetic process id all trace rows share; spans go
// on tid 0 ("phases"), worker w on tid w+1.
const tracePid = 1

// WriteChromeTrace assembles a flight recording — the span tree of a
// registry snapshot, the sampler's gauge time series, and the tracer's
// per-worker events — into one Chrome trace-event JSON document
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Phase spans appear as nested slices on the "phases" track, worker
// events on one track per worker, and sampled gauges as counter plots.
// Any of the three inputs may be empty.
func WriteChromeTrace(w io.Writer, snap Snapshot, samples []Sample, events []TraceEvent) error {
	// The timeline is relative to the earliest timestamp anywhere in
	// the recording, so ts values stay small and positive.
	base := int64(0)
	consider := func(ns int64) {
		if ns > 0 && (base == 0 || ns < base) {
			base = ns
		}
	}
	var walk func(s SpanSnapshot)
	walk = func(s SpanSnapshot) {
		consider(s.StartUnixNano)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range snap.Spans {
		walk(s)
	}
	for _, s := range samples {
		consider(s.UnixNano)
	}
	for _, e := range events {
		consider(e.Start.UnixNano())
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	out := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "socyield"},
	}, {
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: 0,
		Args: map[string]any{"name": "phases"},
	}}

	workers := map[int]bool{}
	for _, e := range events {
		workers[e.Worker] = true
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: id + 1,
			Args: map[string]any{"name": "worker " + strconv.Itoa(id)},
		})
	}

	var emit func(s SpanSnapshot)
	emit = func(s SpanSnapshot) {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Cat: "phase",
			Ts: us(s.StartUnixNano), Dur: s.Seconds * 1e6,
			Pid: tracePid, Tid: 0,
		}
		if s.Running {
			ev.Args = map[string]any{"running": true}
		}
		out = append(out, ev)
		for _, c := range s.Children {
			emit(c)
		}
	}
	for _, s := range snap.Spans {
		emit(s)
	}

	for _, e := range events {
		cat := e.Cat
		if cat == "" {
			cat = "work"
		}
		out = append(out, chromeEvent{
			Name: e.Name, Ph: "X", Cat: cat,
			Ts: us(e.Start.UnixNano()), Dur: float64(e.Dur) / 1e3,
			Pid: tracePid, Tid: e.Worker + 1, Args: e.Args,
		})
	}

	// Gauges and float gauges become counter plots; monotone counters
	// are omitted (their derivative is rarely what you want to eyeball,
	// and including them would double the event count).
	for _, s := range samples {
		names := make([]string, 0, len(s.Gauges)+len(s.FloatGauges))
		for name := range s.Gauges {
			names = append(names, name)
		}
		for name := range s.FloatGauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			var v any
			if g, ok := s.Gauges[name]; ok {
				v = g
			} else {
				v = s.FloatGauges[name]
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "C", Ts: us(s.UnixNano), Pid: tracePid,
				Args: map[string]any{"value": v},
			})
		}
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
