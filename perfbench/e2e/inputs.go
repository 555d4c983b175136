// Package e2e runs the benchmark's workloads end to end. It touches
// the program only through the socyield facade and the yieldd HTTP
// handler, so a change to the program's internals cannot break the
// comparison of a parent commit with its change.
package e2e

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"socyield"
	"socyield/perfbench/harness"
)

// Input streams of one seed. Each workload draws from its own streams
// so that a change to one part of the inputs leaves the others alone.
const (
	streamBuildOrder uint64 = iota + 1
	streamLawGrid
	streamSens
	streamServeSpecs
	streamServeSchedule
	streamServeClasses
	streamServeLethality
	streamServeCold
	streamServeSweep
)

// SystemByName builds a benchmark system, MS<n> or ESEN<n>x<m>, through
// the facade's generators.
func SystemByName(name string) (*socyield.System, error) {
	if rest, ok := strings.CutPrefix(name, "MS"); ok {
		if n, err := strconv.Atoi(rest); err == nil {
			return socyield.MS(n)
		}
	}
	if rest, ok := strings.CutPrefix(name, "ESEN"); ok {
		if ns, ms, ok := strings.Cut(rest, "x"); ok {
			n, err1 := strconv.Atoi(ns)
			m, err2 := strconv.Atoi(ms)
			if err1 == nil && err2 == nil {
				return socyield.ESEN(n, m)
			}
		}
	}
	return nil, fmt.Errorf("unknown system %q", name)
}

// Lethalities returns the system's P_i.
func Lethalities(sys *socyield.System) []float64 {
	ps := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		ps[i] = c.P
	}
	return ps
}

// Perturb scales each P_i by a factor drawn uniformly from
// [1-spread, 1+spread].
func Perturb(rng *rand.Rand, ps []float64, spread float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p * (1 + spread*(2*rng.Float64()-1))
	}
	return out
}

// perturbKeepPL is Perturb rescaled so that P_L = Σ P_i is unchanged
// up to rounding. λ′ = λ·P_L fixes the truncation point M, and M is part
// of the model key, so only such perturbations keep a request on its
// key.
func perturbKeepPL(rng *rand.Rand, ps []float64, spread float64) []float64 {
	out := Perturb(rng, ps, spread)
	pl, sum := 0.0, 0.0
	for i := range ps {
		pl += ps[i]
		sum += out[i]
	}
	for i := range out {
		out[i] *= pl / sum
	}
	return out
}

// WithLethalities returns a copy of sys with P_i replaced by ps. The
// fault tree is shared.
func WithLethalities(sys *socyield.System, ps []float64) *socyield.System {
	cp := *sys
	cp.Components = append([]socyield.Component(nil), sys.Components...)
	for i := range cp.Components {
		cp.Components[i].P = ps[i]
	}
	return &cp
}

// Options returns evaluation options pinned to the serial build
// engine.
func Options(dist socyield.Distribution, eps float64) socyield.Options {
	o := socyield.Options{Defects: dist, Epsilon: eps}
	harness.PinSerialBuild(&o)
	return o
}

// NB returns the negative binomial law, which the benchmark only
// builds with valid parameters.
func NB(lambda, alpha float64) socyield.Distribution {
	d, err := socyield.NewNegativeBinomial(lambda, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// Workers is the parallelism the benchmark allows itself: one worker
// or connection per CPU.
func Workers() int { return runtime.NumCPU() }

// ScratchDir returns a fresh directory under .bench_build/tmp in the
// current directory, the root of the checkout.
func ScratchDir(pattern string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// Millis converts a duration to milliseconds.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Repeat calls f until the budget is spent: always once, then again
// while the time used plus the duration of the last call fits the
// budget.
func Repeat(budget time.Duration, f func() error) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

// SetupTimes runs setup n times and returns the median duration in
// seconds. Setup is repeated because its single-run time is noisy
// and a later change must not move work into it unseen. Each run
// starts after a collection, from the same heap.
func SetupTimes(n int, setup func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return harness.Median(ts), nil
}
