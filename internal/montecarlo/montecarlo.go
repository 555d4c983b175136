// Package montecarlo estimates yield by simulation — the alternative
// approach the paper's introduction weighs against the combinatorial
// method: not limited by system complexity, but expensive and without
// strict error control. It serves as the baseline benchmark and as an
// independent statistical cross-check of the combinatorial results.
//
// Simulation parallelizes trivially, so Estimate shards its samples
// into fixed-size chunks, each with its own PRNG stream seeded
// deterministically from the base seed and the chunk index, and fans
// the chunks out over a worker pool. Because the stream assignment
// depends only on (Seed, chunk index) — never on scheduling — the
// estimate is bit-identical for every worker count, including 1.
package montecarlo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/par"
	"socyield/internal/yield"
)

// Options configure a simulation run.
type Options struct {
	// Defects is the distribution of the number of defects (required).
	Defects defects.Distribution
	// Samples is the number of simulated dies (required, > 0).
	Samples int
	// Seed seeds the deterministic PRNG family. The estimate depends
	// only on Seed and Samples, not on Workers.
	Seed int64
	// Workers is the number of simulation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Recorder, when non-nil, receives simulation instrumentation:
	// "mc.chunks"/"mc.samples" counters, a "mc.chunk_ns" latency
	// histogram and a "mc.samples_per_sec" gauge of the effective
	// aggregate rate. Per-chunk granularity (4096 dies), so the per-die
	// loop stays clock-free.
	Recorder *obs.Registry
	// Progress, when non-nil, is advanced by the dies of each completed
	// chunk, so a run advances it by Samples in all.
	Progress *obs.Progress
}

// Result is a simulation estimate with a normal-approximation
// confidence interval.
type Result struct {
	// Yield is the point estimate: fraction of simulated dies that
	// function.
	Yield float64
	// StdErr is the standard error of the estimate.
	StdErr float64
	// Samples echoes the sample count.
	Samples int
	// Degenerate reports an all-pass or all-fail sample: the binomial
	// variance estimate is then exactly zero and CI collapses to a
	// vacuously tight point. Use Wilson for an interval that stays
	// honest in this regime (at p̂ = 1 its lower bound is the
	// rule-of-three analogue n/(n+z²)).
	Degenerate bool
}

// CI returns the half-width of the confidence interval at the given
// number of standard errors (1.96 ≈ 95%).
func (r Result) CI(z float64) float64 { return z * r.StdErr }

// Wilson returns the Wilson score interval for the yield at z standard
// errors. Unlike the normal-approximation interval it never collapses
// to a point on degenerate (all-pass or all-fail) samples, so it is the
// interval to quote when Result.Degenerate is set.
func (r Result) Wilson(z float64) (lo, hi float64) {
	n := float64(r.Samples)
	p := r.Yield
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// maxDefectsPerDie caps the tabulated defect-count support: the
// per-die count Estimate draws from the inverse CDF, and the lethal
// count EstimateIS tabulates. A law with real mass beyond it is too
// heavy-tailed for this package and is reported as an error.
const maxDefectsPerDie = 10000

// chunkSize is the shard granularity: small enough that worker loads
// balance, large enough that the per-chunk PRNG setup is noise.
const chunkSize = 4096

// chunkSeed derives the PRNG seed of one chunk from the base seed by a
// splitmix64 step, so neighbouring chunks get decorrelated streams.
func chunkSeed(base int64, chunk int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(chunk+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Estimate simulates dies: each die draws a defect count from
// Options.Defects, each defect independently lands on component i and
// is lethal with probability P_i (with probability 1-ΣP_i it is
// harmless), and the fault tree decides whether the die functions.
func Estimate(sys *yield.System, opts Options) (Result, error) {
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Defects == nil {
		return Result{}, errors.New("montecarlo: Options.Defects is required")
	}
	if opts.Samples <= 0 {
		return Result{}, fmt.Errorf("montecarlo: Samples = %d, need > 0", opts.Samples)
	}
	// Cumulative P_i for component sampling (read-only after setup).
	c := len(sys.Components)
	cum := make([]float64, c)
	acc := 0.0
	for i, comp := range sys.Components {
		acc += comp.P
		cum[i] = acc
	}
	pl := acc
	// Tabulate the defect-count CDF once; each die then draws its
	// count by binary search instead of a fresh PMF walk. The table
	// stops once the remaining mass drops below 1e-12: families built
	// on truncated numeric expansions (compound Poisson, numeric
	// thinning) can leave a residual around 1e-15 that a tighter stop
	// would chase across the whole support at quadratic cost, and a
	// draw landing past the table (probability < 1e-12) is handled
	// below anyway.
	countCDF := make([]float64, 0, 64)
	cdf := 0.0
	for k := 0; k <= maxDefectsPerDie; k++ {
		cdf += opts.Defects.PMF(k)
		countCDF = append(countCDF, cdf)
		if 1-cdf < 1e-12 {
			break
		}
	}

	rec := opts.Recorder
	var runStart time.Time
	if rec != nil {
		runStart = time.Now()
	}
	chunks := newChunkRun(rec, "mc.", opts.Progress, par.Workers(opts.Workers, numChunks(opts.Samples)), c)
	var functioning atomic.Int64
	err := chunks.run(opts.Samples, func(chunk, n int, sc *scratch) error {
		ok, err := simulateChunk(sys, rand.New(rand.NewSource(chunkSeed(opts.Seed, chunk))), n, countCDF, cum, pl, sc)
		if err != nil {
			return err
		}
		functioning.Add(int64(ok))
		return nil
	})
	if rec != nil {
		if wall := time.Since(runStart).Seconds(); wall > 0 {
			rec.FloatGauge("mc.samples_per_sec").Set(float64(chunks.sampleCnt.Load()) / wall)
		}
	}
	if err != nil {
		return Result{}, err
	}
	ok := functioning.Load()
	p := float64(ok) / float64(opts.Samples)
	return Result{
		Yield:      p,
		StdErr:     math.Sqrt(p * (1 - p) / float64(opts.Samples)),
		Samples:    opts.Samples,
		Degenerate: ok == 0 || ok == int64(opts.Samples),
	}, nil
}

// numChunks is the number of chunks of a phase of dies dies.
func numChunks(dies int) int { return (dies + chunkSize - 1) / chunkSize }

// chunkRun is the per-chunk bookkeeping every simulation phase shares:
// the worker count, the chunk instruments (nil without a Recorder) and
// the progress meter, which advances by the dies of each chunk.
type chunkRun struct {
	workers, components int
	chunkNS             *obs.Histogram
	chunkCnt, sampleCnt *obs.Counter
	progress            *obs.Progress
}

// newChunkRun resolves the instruments prefix+"chunk_ns",
// prefix+"chunks" and prefix+"samples" in rec and sets the
// prefix+"workers" gauge. c is the system's component count.
func newChunkRun(rec *obs.Registry, prefix string, progress *obs.Progress, workers, c int) *chunkRun {
	rec.Gauge(prefix + "workers").Set(int64(workers))
	return &chunkRun{
		workers:    workers,
		components: c,
		chunkNS:    rec.Histogram(prefix + "chunk_ns"),
		chunkCnt:   rec.Counter(prefix + "chunks"),
		sampleCnt:  rec.Counter(prefix + "samples"),
		progress:   progress,
	}
}

// run simulates dies dies in chunks of chunkSize on the run's workers.
// sim simulates the n dies of one chunk with a worker-local scratch
// and must write only chunk-indexed state.
func (r *chunkRun) run(dies int, sim func(chunk, n int, sc *scratch) error) error {
	newSc := func() *scratch { return &scratch{failed: make([]bool, r.components)} }
	return par.For(numChunks(dies), r.workers, newSc, func(chunk int, sc *scratch) error {
		n := min(chunkSize, dies-chunk*chunkSize)
		var t0 time.Time
		if r.chunkNS != nil {
			t0 = time.Now()
		}
		if err := sim(chunk, n, sc); err != nil {
			return err
		}
		if r.chunkNS != nil {
			r.chunkNS.Observe(int64(time.Since(t0)))
			r.chunkCnt.Inc()
			r.sampleCnt.Add(int64(n))
		}
		r.progress.Add(n)
		return nil
	})
}

// scratch is one worker's reusable buffers: the per-die failed-state
// vector and the netlist evaluation values.
type scratch struct {
	failed []bool
	eval   []bool
}

// simulateChunk runs n dies on one PRNG stream and returns how many
// functioned.
func simulateChunk(sys *yield.System, rng *rand.Rand, n int, countCDF, cum []float64, pl float64, sc *scratch) (int, error) {
	functioning := 0
	failed := sc.failed
	for s := 0; s < n; s++ {
		u := rng.Float64()
		k := sort.SearchFloat64s(countCDF, u)
		// SearchFloat64s finds the first index with cdf ≥ u; the die's
		// count is the first index with u < cdf, so step past ties.
		for k < len(countCDF) && countCDF[k] <= u {
			k++
		}
		if k >= len(countCDF) {
			if len(countCDF) == maxDefectsPerDie+1 {
				return 0, fmt.Errorf("montecarlo: defect count sampling exceeded %d (tail too heavy)", maxDefectsPerDie)
			}
			// The table stopped where the residual mass dropped below
			// its threshold; landing past it (probability < 1e-12)
			// counts as the first untabulated value.
			k = len(countCDF)
		}
		for i := range failed {
			failed[i] = false
		}
		for d := 0; d < k; d++ {
			v := rng.Float64()
			if v >= pl {
				continue // harmless defect
			}
			idx := sort.SearchFloat64s(cum, v)
			if idx < len(failed) {
				failed[idx] = true
			}
		}
		down, err := sys.FaultTree.EvalWith(failed, &sc.eval)
		if err != nil {
			return 0, err
		}
		if !down {
			functioning++
		}
	}
	return functioning, nil
}
