// Package par is the one fan-out loop of the module: it runs n
// independent, index-addressed work items on a bounded set of
// goroutines. Sweep passes and points, Monte-Carlo chunks and
// experiments cases all run on it. Callers write each item's result
// to item-indexed state, so what they compute never depends on which
// goroutine ran an item or in what order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n items: a request
// ≤ 0 means runtime.GOMAXPROCS(0), and the result is clamped to
// [1, n] (1 when n ≤ 0).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// For calls fn(i, local) once for every i in [0, n) on up to workers
// goroutines, and returns once every call has returned. Each worker
// makes its own local with newLocal (a nil newLocal gives every worker
// L's zero value) and passes it to each item it runs. With one worker
// the items run in index order on the calling goroutine, which starts
// no goroutine at all.
//
// Items are claimed in index order. The first error stops the loop:
// no further item is claimed, and the items already claimed finish.
// For returns the error of the lowest failing index, so when failures
// depend on the index alone, the reported one does not depend on
// scheduling.
func For[L any](n, workers int, newLocal func() L, fn func(i int, local L) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(workers, n)
	if workers <= 1 {
		local := makeLocal(newLocal)
		for i := range n {
			if err := fn(i, local); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errAt   = n
		first   error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			local := makeLocal(newLocal)
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i, local); err != nil {
					mu.Lock()
					if i < errAt {
						errAt, first = i, err
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// makeLocal returns a new worker's local.
func makeLocal[L any](newLocal func() L) (l L) {
	if newLocal != nil {
		l = newLocal()
	}
	return l
}
