package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEachIndexOnce checks that every index runs exactly once
// and that each worker gets a local of its own: the locals are
// incremented without synchronization, so a local shared by two
// goroutines is a data race under -race, and their counts must add up
// to n.
func TestForRunsEachIndexOnce(t *testing.T) {
	type local struct{ items int }
	for _, workers := range []int{1, 2, 4, 9} {
		for _, n := range []int{1, 3, 1000} {
			t.Run(fmt.Sprintf("w%d/n%d", workers, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				var mu sync.Mutex
				var locals []*local
				err := For(n, workers, func() *local {
					l := &local{}
					mu.Lock()
					locals = append(locals, l)
					mu.Unlock()
					return l
				}, func(i int, l *local) error {
					runs[i].Add(1)
					l.items++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times", i, got)
					}
				}
				if want := min(workers, n); len(locals) != want {
					t.Errorf("%d locals, want one per worker (%d)", len(locals), want)
				}
				total := 0
				for _, l := range locals {
					total += l.items
				}
				if total != n {
					t.Errorf("locals counted %d items, want %d", total, n)
				}
			})
		}
	}
}

// TestForFirstErrorStops checks that an error stops the loop well
// before the rest of the items run, and that the error reported is the
// lowest failing index's whatever the worker count.
func TestForFirstErrorStops(t *testing.T) {
	const n = 400
	for _, workers := range []int{1, 2, 4, 8} {
		var ran atomic.Int32
		err := For(n, workers, nil, func(i int, _ struct{}) error {
			ran.Add(1)
			switch i {
			case 5, 7:
				return fmt.Errorf("item %d", i)
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err == nil || err.Error() != "item 5" {
			t.Errorf("workers %d: err = %v, want item 5", workers, err)
		}
		if got := ran.Load(); got > n/4 {
			t.Errorf("workers %d: %d of %d items ran after the error", workers, got, n)
		}
	}
}

// TestForNoItems checks that an empty loop makes no local.
func TestForNoItems(t *testing.T) {
	err := For(0, 4, func() int { panic("newLocal called for no items") }, func(int, int) error {
		return errors.New("fn called for no items")
	})
	if err != nil {
		t.Fatal(err)
	}
}

var sink int

// TestForOneWorkerAllocatesNothing checks that the one-worker path runs
// inline: no goroutine, and no allocation of its own.
func TestForOneWorkerAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = For(16, 1, nil, func(i int, _ struct{}) error {
			sink += i
			return nil
		})
	})
	if allocs != 0 {
		t.Errorf("one-worker For allocated %v times per run, want 0", allocs)
	}
}

func TestWorkersClamps(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ requested, n, want int }{
		{0, 1000, procs},
		{-3, 1000, procs},
		{0, 1, 1},
		{8, 3, 3},
		{2, 10, 2},
		{4, 0, 1},
		{0, 0, 1},
	} {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}
