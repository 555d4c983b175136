package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one timed slice of the build, such as one compiled
// gate. Events land on the build track of the Chrome trace export,
// with Args as the slice's arguments.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Start time.Time      `json:"start"`
	Dur   time.Duration  `json:"dur"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer collects TraceEvents into a bounded ring buffer, overwriting
// the oldest when full, so a late dump keeps the most recent window.
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
func (t *Tracer) Event(name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	ev := TraceEvent{Name: name, Cat: cat, Start: start, Dur: dur, Args: args}
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
// (the subset Perfetto and chrome://tracing load): "M" metadata and
// "X" complete events. ts/dur are microseconds.
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
// on the "phases" track and build events on the "build" track.
const (
	tracePid = 1
	phaseTid = 0
	buildTid = 1
)

// WriteChromeTrace assembles a flight recording — the span tree of a
// registry snapshot and the tracer's build events — into one Chrome
// trace-event JSON document loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Phase spans appear as
// nested slices on the "phases" track and build events on one "build"
// track. Either input may be empty.
func WriteChromeTrace(w io.Writer, snap Snapshot, events []TraceEvent) error {
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
	for _, e := range events {
		consider(e.Start.UnixNano())
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	out := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "socyield"},
	}, {
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: phaseTid,
		Args: map[string]any{"name": "phases"},
	}}
	if len(events) > 0 {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: buildTid,
			Args: map[string]any{"name": "build"},
		})
	}

	var emit func(s SpanSnapshot)
	emit = func(s SpanSnapshot) {
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Cat: "phase",
			Ts: us(s.StartUnixNano), Dur: s.Seconds * 1e6,
			Pid: tracePid, Tid: phaseTid,
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
			Pid: tracePid, Tid: buildTid, Args: e.Args,
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
