package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress reports the advance of a long batch (a Monte-Carlo run)
// as periodic single-line status reports: items done, percentage,
// throughput, and ETA. A background goroutine owns the printing; the
// workers only call Add, which is one atomic addition, so progress
// reporting never serializes the work it observes.
//
// All methods are no-ops on a nil receiver, so call sites can thread a
// Progress through unconditionally and leave it nil when -progress is
// off.
type Progress struct {
	w        io.Writer
	label    string
	total    int64
	done     atomic.Int64
	start    time.Time
	interval time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup
	closed   sync.Once
}

// NewProgress starts a reporter writing to w every interval (default
// 1s when ≤ 0). total ≤ 0 means the item count is unknown: percentages
// and ETA are omitted. Close must be called to stop the background
// goroutine and emit the final line.
func NewProgress(w io.Writer, label string, total int, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	p := &Progress{
		w:        w,
		label:    label,
		total:    int64(total),
		start:    time.Now(),
		interval: interval,
		stop:     make(chan struct{}),
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(p.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.report(false)
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Add records n completed items. No-op on a nil receiver.
func (p *Progress) Add(n int) {
	if p != nil {
		p.done.Add(int64(n))
	}
}

// Done returns the number of items recorded so far.
func (p *Progress) Done() int64 {
	if p == nil {
		return 0
	}
	return p.done.Load()
}

// Close stops the reporter and emits one final line. Safe to call more
// than once; no-op on a nil receiver.
func (p *Progress) Close() {
	if p == nil {
		return
	}
	p.closed.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.report(true)
	})
}

func (p *Progress) report(final bool) {
	done := p.done.Load()
	elapsed := time.Since(p.start)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed.Seconds()
	}
	switch {
	case final:
		fmt.Fprintf(p.w, "%s: %d done in %s (%.1f/s)\n",
			p.label, done, elapsed.Round(time.Millisecond), rate)
	case p.total > 0:
		// ETA guards against the zero-rate/zero-elapsed edge cases at
		// the start of a long run and clamps overshoot (done > total)
		// to zero instead of a negative estimate.
		eta := "?"
		if d, ok := ETA(done, p.total, elapsed); ok {
			eta = d.Round(time.Second).String()
		}
		fmt.Fprintf(p.w, "%s: %d/%d (%.1f%%)  %.1f/s  ETA %s\n",
			p.label, done, p.total, 100*float64(done)/float64(p.total), rate, eta)
	default:
		fmt.Fprintf(p.w, "%s: %d done  %.1f/s\n", p.label, done, rate)
	}
}
