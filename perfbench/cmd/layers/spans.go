package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer. Spans of one build or request
// share a Trace id; Parent is the index of the enclosing span, -1 at
// the root.
type Span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Spans records spans in memory, from one goroutine, and writes them
// out when the run ends.
type Spans struct {
	t0   time.Time
	list []Span
}

func NewSpans() *Spans { return &Spans{t0: time.Now()} }

// Start opens a span and returns its index.
func (s *Spans) Start(trace, name string, parent int) int {
	s.list = append(s.list, Span{Trace: trace, Name: name, Parent: parent, Start: time.Since(s.t0)})
	return len(s.list) - 1
}

// End closes span i and returns its duration.
func (s *Spans) End(i int) time.Duration {
	s.list[i].End = time.Since(s.t0)
	return s.list[i].End - s.list[i].Start
}

// Do runs f inside a span and returns the span's duration.
func (s *Spans) Do(trace, name string, parent int, f func()) time.Duration {
	i := s.Start(trace, name, parent)
	f()
	return s.End(i)
}

// Write stores the spans as JSON in path, creating its directory.
func (s *Spans) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
