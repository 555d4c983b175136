package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one timed slice of a build: one build phase (category
// "phase"), or one compiled gate. In the Chrome trace export phase
// events land on the phases track and all others on the build track,
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

// tracePid is the synthetic process id all trace rows share; "phase"
// events go on the "phases" track and every other event on the
// "build" track.
const (
	tracePid = 1
	phaseTid = 0
	buildTid = 1
)

// WriteChromeTrace writes the events t retains as one Chrome
// trace-event JSON document loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Events of category
// "phase" (each build phase, and each build as a whole) appear on the
// "phases" track, every other event (the per-gate compile events) on
// the "build" track. The process_name row carries t.Dropped() as its
// "dropped_events" argument: a nonzero count means the ring has
// overwritten the start of the run. A nil tracer writes the empty
// tracks.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	events := t.Events()
	// The timeline is relative to the earliest start in the recording,
	// so ts values stay small and positive. A phase event is recorded
	// when its phase ends, after the events of its gates.
	var base time.Time
	for _, e := range events {
		if base.IsZero() || e.Start.Before(base) {
			base = e.Start
		}
	}

	out := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "socyield", "dropped_events": t.Dropped()},
	}, {
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: phaseTid,
		Args: map[string]any{"name": "phases"},
	}, {
		Name: "thread_name", Ph: "M", Pid: tracePid, Tid: buildTid,
		Args: map[string]any{"name": "build"},
	}}
	for _, e := range events {
		cat, tid := e.Cat, buildTid
		switch cat {
		case "phase":
			tid = phaseTid
		case "":
			cat = "work"
		}
		out = append(out, chromeEvent{
			Name: e.Name, Ph: "X", Cat: cat,
			Ts: float64(e.Start.Sub(base)) / 1e3, Dur: float64(e.Dur) / 1e3,
			Pid: tracePid, Tid: tid, Args: e.Args,
		})
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}
