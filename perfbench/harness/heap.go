package harness

import (
	"runtime/metrics"
	"sync"
	"time"
)

const heapMetric = "/memory/classes/heap/objects:bytes"

// HeapSampler tracks the peak Go heap (bytes in heap objects, live or
// not yet swept) by reading runtime/metrics at a fixed interval from a
// goroutine of its own. runtime/metrics does not stop the world, so
// the sampler costs the measured code almost nothing.
type HeapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

// StartHeapSampler starts sampling every interval. Stop it with Stop.
func StartHeapSampler(interval time.Duration) *HeapSampler {
	h := &HeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = HeapBytes()
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(HeapBytes())
			}
		}
	}()
	return h
}

func (h *HeapSampler) observe(b uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, b)
	h.mu.Unlock()
}

// Reset returns the peak since the last Reset (or the start) and
// starts a new window at the current heap size.
func (h *HeapSampler) Reset() uint64 {
	now := HeapBytes()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := max(h.peak, now)
	h.peak = now
	return p
}

// Stop ends sampling, waits for the goroutine to exit and returns the
// peak of the last window.
func (h *HeapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.Reset()
}

// HeapBytes returns the current bytes in heap objects.
func HeapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// MB converts bytes to mebibytes.
func MB(b uint64) float64 { return float64(b) / (1 << 20) }

// PeakWindows runs f while sampling the heap every interval, and
// returns the peak of each whole window of the given length that ended
// while f ran. The window that f's end cuts short is left out.
func PeakWindows(interval, window time.Duration, f func()) []uint64 {
	h := StartHeapSampler(interval)
	stop, done := make(chan struct{}), make(chan struct{})
	var peaks []uint64
	go func() {
		defer close(done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				peaks = append(peaks, h.Reset())
			}
		}
	}()
	f()
	close(stop)
	<-done
	h.Stop()
	return peaks
}
