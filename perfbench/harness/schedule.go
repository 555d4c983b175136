package harness

import (
	"math/rand/v2"
	"time"
)

// NewRand returns the benchmark's generator for one input stream of a
// seed. Distinct streams of one seed are independent, so adding draws
// to one stream never shifts the inputs drawn from another.
func NewRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Rung is one step of the open-loop rate ladder.
type Rung struct {
	Rate     float64 // requests per second
	Duration time.Duration
}

// Schedule draws the Poisson arrival times of each rung, as offsets
// from the rung's start. The same generator state gives the same
// schedule.
func Schedule(rng *rand.Rand, rungs []Rung) [][]time.Duration {
	out := make([][]time.Duration, len(rungs))
	for i, r := range rungs {
		var due []time.Duration
		t := 0.0
		for {
			t += rng.ExpFloat64() / r.Rate
			d := time.Duration(t * float64(time.Second))
			if d >= r.Duration {
				break
			}
			due = append(due, d)
		}
		out[i] = due
	}
	return out
}

// Class is the kind of a serve request, decided by the generator.
type Class uint8

const (
	// Hit evaluates on a hot key, which is always in the server's LRU.
	Hit Class = iota
	// Sens is a hit that also asks for sensitivities.
	Sens
	// Sweep is a /v1/sweep on a hot key.
	Sweep
	// Warm evaluates on a key that has been evicted from the LRU but
	// is in the store.
	Warm
	// Cold evaluates on a key never seen before, so the server builds.
	Cold
	numClasses
)

var classNames = [numClasses]string{"hit", "sens", "sweep", "warm", "cold"}

func (c Class) String() string { return classNames[c] }

// inserts reports whether the class brings a new model into the LRU.
func (c Class) inserts() bool { return c == Warm || c == Cold }

// Mix gives the share of each non-hit class; the rest are hits.
type Mix struct {
	Sens, Sweep, Warm, Cold float64
}

// Slot is one planned request: its class and the index of its key
// among the hot keys (Hit, Sens, Sweep), the warm keys (Warm), or the
// running count of cold keys (Cold).
type Slot struct {
	Class Class
	Key   int
}

// PlanClasses assigns a class and a key to n requests so that the
// server's LRU answers each class as named. The LRU is assumed to hold
// every hot key plus at least one more model, with the hot keys the
// most recently used when the plan starts. Two rules make that hold:
//
//   - A Warm or Cold request (an insertion) is placed only when every
//     hot key has been requested since the previous insertion, so an
//     insertion never evicts a hot key. A drawn insertion that may not
//     be placed yet becomes a hit on a hot key not yet requested, and
//     the insertion takes the place of the next hit allowed to carry
//     it. The shares of the mix are kept this way, except for
//     insertions still waiting at the end.
//   - Warm keys are used in turn, from index 0, so a warm key comes
//     back only after all the others have entered the LRU since; with
//     more warm keys than free LRU slots it has been evicted by then.
//
// Every Sweep goes to hot key 0, so that all sweeps cost the same and
// their median does not depend on which keys the seed picked.
func PlanClasses(rng *rand.Rand, n, hot, warm int, mix Mix) []Slot {
	out := make([]Slot, n)
	touched := make([]bool, hot)
	for i := range touched {
		touched[i] = true
	}
	untouched := 0
	var pending []Class
	nextWarm, nextCold := 0, 0
	for i := range out {
		c := draw(rng.Float64(), mix)
		if c.inserts() {
			pending = append(pending, c)
			c = Hit
		}
		if c == Hit && len(pending) > 0 && untouched == 0 {
			c, pending = pending[0], pending[1:]
		}
		switch c {
		case Warm:
			out[i] = Slot{Class: Warm, Key: nextWarm % warm}
			nextWarm++
		case Cold:
			out[i] = Slot{Class: Cold, Key: nextCold}
			nextCold++
		default:
			k := rng.IntN(hot)
			if c == Sweep {
				k = 0
			} else if len(pending) > 0 {
				for j, t := range touched {
					if !t {
						k = j
						break
					}
				}
			}
			out[i] = Slot{Class: c, Key: k}
			if !touched[k] {
				touched[k] = true
				untouched--
			}
			continue
		}
		for j := range touched {
			touched[j] = false
		}
		untouched = hot
	}
	return out
}

func draw(u float64, mix Mix) Class {
	for _, cs := range []struct {
		share float64
		class Class
	}{{mix.Sens, Sens}, {mix.Sweep, Sweep}, {mix.Warm, Warm}, {mix.Cold, Cold}} {
		if u < cs.share {
			return cs.class
		}
		u -= cs.share
	}
	return Hit
}
