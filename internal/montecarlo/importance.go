// Importance-sampling rare-event estimation. Naive simulation goes
// blind exactly where the combinatorial method shines: near-certain
// yields, where a realistic sample contains no failing die at all and
// the binomial confidence interval collapses to a vacuous point. The
// estimator here follows the exponential-twisting programme of rare
// event simulation (Jonsson & Lelong, "Rare event simulation for
// electronic circuit design", arXiv:2109.08393): it reweights the
// defect-count law toward the failure region and corrects each sample
// with its likelihood ratio, so a handful of thousands of draws can
// certify failure probabilities of 1e-5 and below.
//
// Concretely, a die fails only through lethal defects, so the failure
// probability is computed under the lethal count law Q' = Thin(Q, PL)
// with each lethal defect landing on component i with probability
// P_i/PL (the paper's equation (1) reformulation). Since a die with
// zero lethal defects always functions, the proposal tilts Q'
// restricted to k ≥ 1:
//
//	q̃_k ∝ q'_k·e^{θk},  k = 1..K
//
// and each sample carries the weight w_k = q'_k/q̃_k, making
// mean(1{fail}·w) an unbiased estimate of the failure probability for
// every θ. The tilt θ is chosen by an adaptive pilot phase: a short
// untilted (θ = 0, conditioned on k ≥ 1) run tallies the conditional
// failure probability p̂_k per defect count, and θ* minimizes the
// estimator's second moment Σ q'_k e^{θk} · Σ q'_k e^{-θk} p̂_k over a
// grid — the standard variance proxy for exponential twisting. If the
// pilot sees no failure at all, θ is instead chosen so the tilted
// conditional mean count lands well inside the failure region.
//
// Determinism matches Estimate: samples are sharded into fixed-size
// chunks, each chunk draws from its own (Seed, chunk)-derived PRNG
// stream, per-chunk partial sums land in a chunk-indexed slice, and
// the reduction runs serially in chunk order — so the result is
// bit-identical for every worker count. The pilot phase uses a
// disjoint stream family derived from chunkSeed(Seed, MaxInt32).
package montecarlo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/par"
	"socyield/internal/yield"
)

// ISOptions configure an importance-sampling run.
type ISOptions struct {
	// Defects is the distribution of the number of defects (required).
	Defects defects.Distribution
	// Samples is the total simulation budget, pilot included
	// (required, > 0) — an IS run at Samples draws exactly as many dies
	// as Estimate at the same Samples, so comparisons are honest.
	Samples int
	// Seed seeds the deterministic PRNG family. The estimate depends
	// only on Seed and the option fields, never on Workers.
	Seed int64
	// Workers is the number of simulation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// PilotSamples is the untilted pilot budget used to pick the tilt;
	// 0 means min(8192, Samples/4). Ignored when TiltSet.
	PilotSamples int
	// Tilt fixes the twisting parameter θ when TiltSet is true,
	// skipping the pilot phase entirely (the whole budget then goes to
	// the tilted run). Must be finite and ≥ 0.
	Tilt    float64
	TiltSet bool
	// Recorder, when non-nil, receives "mc.is.chunks"/"mc.is.samples"
	// counters, a "mc.is.chunk_ns" histogram, and "mc.tilt"/"mc.ess"/
	// "mc.rel_err" diagnostic gauges.
	Recorder *obs.Registry
	// Progress, when non-nil, is advanced by the dies of each completed
	// chunk, pilot and main, so a run advances it by Samples in all.
	Progress *obs.Progress
}

// ISResult is an importance-sampling estimate with its rare-event
// diagnostics.
type ISResult struct {
	// Yield is the point estimate 1 − FailProb.
	Yield float64
	// FailProb is the estimated failure probability — the quantity the
	// estimator actually targets.
	FailProb float64
	// StdErr is the standard error of FailProb (and hence of Yield).
	StdErr float64
	// Samples echoes the total budget; PilotSamples of it went to the
	// untilted pilot and the rest to the tilted run.
	Samples      int
	PilotSamples int
	// Tilt is the twisting parameter θ the tilted run used.
	Tilt float64
	// ESS is the effective sample size (Σw)²/Σw² of the tilted run — a
	// weight-degeneracy diagnostic; healthy runs keep it a sizable
	// fraction of the tilted sample count.
	ESS float64
	// RelErr is StdErr/FailProb, the figure of merit of rare-event
	// estimation; +Inf when no failure was observed.
	RelErr float64
	// Degenerate reports that the tilted run saw no failing die, so
	// FailProb, StdErr and RelErr carry no information beyond "rare".
	Degenerate bool
}

// CI returns the half-width of the confidence interval at the given
// number of standard errors (1.96 ≈ 95%).
func (r ISResult) CI(z float64) float64 { return z * r.StdErr }

// isPartial is one chunk's contribution to the tilted-run moments.
type isPartial struct {
	sumW, sumW2, sumFW, sumFW2 float64
	fails                      int
}

// isTally is one pilot chunk's per-defect-count trial/failure counts.
type isTally struct {
	trials, fails []int
}

// EstimateIS estimates yield by importance sampling as described in
// the package comment. It targets the same quantity as Estimate but
// stays sharp in near-certain-yield regimes where naive sampling
// returns a degenerate all-pass sample.
func EstimateIS(sys *yield.System, opts ISOptions) (ISResult, error) {
	if err := sys.Validate(); err != nil {
		return ISResult{}, err
	}
	if opts.Defects == nil {
		return ISResult{}, errors.New("montecarlo: ISOptions.Defects is required")
	}
	if opts.Samples <= 0 {
		return ISResult{}, fmt.Errorf("montecarlo: Samples = %d, need > 0", opts.Samples)
	}
	if opts.PilotSamples < 0 || (opts.PilotSamples > 0 && opts.PilotSamples >= opts.Samples) {
		return ISResult{}, fmt.Errorf("montecarlo: PilotSamples = %d, need in [0, Samples)", opts.PilotSamples)
	}
	if opts.TiltSet && (!(opts.Tilt >= 0) || math.IsInf(opts.Tilt, 0)) {
		return ISResult{}, fmt.Errorf("montecarlo: Tilt = %v, need finite and ≥ 0", opts.Tilt)
	}
	// Cumulative P_i for lethal-defect placement (read-only after
	// setup); a lethal defect lands on component i with P_i/PL.
	c := len(sys.Components)
	cum := make([]float64, c)
	acc := 0.0
	for i, comp := range sys.Components {
		acc += comp.P
		cum[i] = acc
	}
	pl := acc // > 0: Validate rejects systems with P_L = 0
	lethal, err := defects.Thin(opts.Defects, sys.PL())
	if err != nil {
		return ISResult{}, err
	}
	// Tabulate the lethal count PMF q'_k until the residual mass drops
	// below 1e-11. The threshold sits above numericThinned's internal
	// coverage tolerance (1e-12) — a numerically thinned family can
	// never sum closer to 1 than that, and a tighter stop would walk the
	// whole table at quadratic cost. The ignored tail biases the failure
	// probability by at most 1e-11, far below any reachable StdErr.
	q := make([]float64, 0, 64)
	cdf := 0.0
	for k := 0; k <= maxDefectsPerDie; k++ {
		p := lethal.PMF(k)
		q = append(q, p)
		cdf += p
		if 1-cdf < 1e-11 {
			break
		}
	}
	if rem := 1 - cdf; rem > 1e-9 {
		return ISResult{}, fmt.Errorf("montecarlo: lethal defect-count tail %v beyond %d too heavy for importance sampling", rem, maxDefectsPerDie)
	}
	maxK := len(q) - 1
	if maxK == 0 || 1-q[0] < 1e-15 {
		// Failure needs a lethal defect, and the probability of seeing
		// even one is below float64 resolution.
		return ISResult{Yield: 1, Samples: opts.Samples, RelErr: math.Inf(1), Degenerate: true}, nil
	}
	lq := make([]float64, maxK+1)
	for k, p := range q {
		if p > 0 {
			lq[k] = math.Log(p)
		} else {
			lq[k] = math.Inf(-1)
		}
	}

	pilot := opts.PilotSamples
	if opts.TiltSet {
		pilot = 0
	} else if pilot == 0 {
		pilot = min(opts.Samples/4, 8192)
	}
	main := opts.Samples - pilot
	workers := par.Workers(opts.Workers, max(numChunks(pilot), numChunks(main)))
	chunks := newChunkRun(opts.Recorder, "mc.is.", opts.Progress, workers, c)

	// Pilot phase: untilted (θ = 0) sampling conditioned on k ≥ 1,
	// tallying per-count conditional failure rates. Its stream family
	// is disjoint from the main phase's so the two never share draws.
	trials := make([]int, maxK+1)
	fails := make([]int, maxK+1)
	if pilot > 0 {
		cdf0, w0 := tiltedTable(q, lq, 0)
		tallies := make([]isTally, numChunks(pilot))
		pilotSeed := chunkSeed(opts.Seed, math.MaxInt32)
		err := chunks.run(pilot, func(chunk, n int, sc *scratch) error {
			tally := &tallies[chunk]
			tally.trials, tally.fails = make([]int, maxK+1), make([]int, maxK+1)
			_, err := simulateISChunk(sys, rand.New(rand.NewSource(chunkSeed(pilotSeed, chunk))), n, cdf0, w0, cum, pl, sc, tally)
			return err
		})
		if err != nil {
			return ISResult{}, err
		}
		for _, t := range tallies {
			for k := 1; k <= maxK; k++ {
				trials[k] += t.trials[k]
				fails[k] += t.fails[k]
			}
		}
	}
	theta := opts.Tilt
	if !opts.TiltSet {
		theta = selectTilt(lq, trials, fails)
	}

	// Main phase: tilted sampling with per-sample likelihood weights.
	cdfT, wT := tiltedTable(q, lq, theta)
	partials := make([]isPartial, numChunks(main))
	err = chunks.run(main, func(chunk, n int, sc *scratch) error {
		var err error
		partials[chunk], err = simulateISChunk(sys, rand.New(rand.NewSource(chunkSeed(opts.Seed, chunk))), n, cdfT, wT, cum, pl, sc, nil)
		return err
	})
	if err != nil {
		return ISResult{}, err
	}
	// Reduce serially in chunk order: with per-chunk partials fixed by
	// (Seed, chunk) alone, this ordered float summation makes the
	// result bit-identical across worker counts.
	var sumW, sumW2, sumFW, sumFW2 float64
	failCount := 0
	for _, p := range partials {
		sumW += p.sumW
		sumW2 += p.sumW2
		sumFW += p.sumFW
		sumFW2 += p.sumFW2
		failCount += p.fails
	}
	n := float64(main)
	fhat := sumFW / n
	variance := sumFW2/n - fhat*fhat
	if variance < 0 {
		variance = 0
	}
	stdErr := math.Sqrt(variance / n)
	ess := 0.0
	if sumW2 > 0 {
		ess = sumW * sumW / sumW2
	}
	relErr := math.Inf(1)
	if fhat > 0 {
		relErr = stdErr / fhat
	}
	if rec := opts.Recorder; rec != nil {
		rec.FloatGauge("mc.tilt").Set(theta)
		rec.FloatGauge("mc.ess").Set(ess)
		if !math.IsInf(relErr, 0) {
			rec.FloatGauge("mc.rel_err").Set(relErr)
		}
	}
	return ISResult{
		Yield:        1 - fhat,
		FailProb:     fhat,
		StdErr:       stdErr,
		Samples:      opts.Samples,
		PilotSamples: pilot,
		Tilt:         theta,
		ESS:          ess,
		RelErr:       relErr,
		Degenerate:   failCount == 0,
	}, nil
}

// tiltedTable builds the θ-tilted proposal over k = 1..K: cdf[i] is
// the cumulative proposal mass of count k = i+1 and w[i] its
// likelihood ratio q'_k/q̃_k, computed directly from the two tabulated
// values so the unbiasedness identity holds in float arithmetic, not
// just in expectation. The log-domain normalization keeps the table
// finite for any θ the grid can pick.
func tiltedTable(q, lq []float64, theta float64) (cdf, w []float64) {
	maxK := len(q) - 1
	a := make([]float64, maxK)
	m := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		a[k-1] = lq[k] + theta*float64(k)
		if a[k-1] > m {
			m = a[k-1]
		}
	}
	z := 0.0
	for i := range a {
		a[i] = math.Exp(a[i] - m)
		z += a[i]
	}
	cdf = make([]float64, maxK)
	w = make([]float64, maxK)
	run := 0.0
	for i := range a {
		p := a[i] / z
		run += p
		cdf[i] = run
		if p > 0 {
			w[i] = q[i+1] / p
		}
	}
	return cdf, w
}

// simulateISChunk runs n dies on one PRNG stream under the tilted
// proposal (cdfT, wT) and returns the chunk's weight moments. When
// tally is non-nil (pilot mode) it also records per-count trials and
// failures.
func simulateISChunk(sys *yield.System, rng *rand.Rand, n int, cdfT, wT, cum []float64, pl float64, sc *scratch, tally *isTally) (isPartial, error) {
	var p isPartial
	failed := sc.failed
	for s := 0; s < n; s++ {
		u := rng.Float64()
		i := sort.SearchFloat64s(cdfT, u)
		// First index with u < cdf, stepping past ties, mirrors the
		// count sampling of simulateChunk.
		for i < len(cdfT) && cdfT[i] <= u {
			i++
		}
		if i >= len(cdfT) {
			// Only reachable when rounding leaves the last cumulative
			// value a hair under 1; the draw belongs to the top count.
			i = len(cdfT) - 1
		}
		k := i + 1
		for j := range failed {
			failed[j] = false
		}
		for d := 0; d < k; d++ {
			// Every defect here is lethal: placement draws directly
			// from the normalized P_i/PL law.
			v := rng.Float64() * pl
			idx := sort.SearchFloat64s(cum, v)
			if idx < len(failed) {
				failed[idx] = true
			}
		}
		down, err := sys.FaultTree.EvalWith(failed, &sc.eval)
		if err != nil {
			return isPartial{}, err
		}
		wk := wT[i]
		p.sumW += wk
		p.sumW2 += wk * wk
		if down {
			p.fails++
			p.sumFW += wk
			p.sumFW2 += wk * wk
			if tally != nil {
				tally.fails[k]++
			}
		}
		if tally != nil {
			tally.trials[k]++
		}
	}
	return p, nil
}

// selectTilt picks θ from the pilot tallies by minimizing the
// estimator's second moment Σ q'_k e^{θk} · Σ q'_k e^{-θk} p̂_k over a
// grid, with p̂_k the Laplace-smoothed conditional failure rate filled
// forward across counts the pilot never drew. With no pilot failure at
// all there is no signal to minimize against, so θ is instead solved
// for a tilted conditional mean count deep in the failure region.
func selectTilt(lq []float64, trials, fails []int) float64 {
	maxK := len(lq) - 1
	if maxK == 1 {
		return 0 // single support point: tilting cannot move anything
	}
	tot := 0
	for _, f := range fails {
		tot += f
	}
	if tot == 0 {
		condMean := tiltedMean(lq, 0)
		target := 4*condMean + 2
		if hi := float64(maxK) - 0.5; target > hi {
			target = hi
		}
		return bisectTiltForMean(lq, target)
	}
	lp := make([]float64, maxK+1)
	last := math.NaN()
	for k := 1; k <= maxK; k++ {
		if trials[k] > 0 {
			last = math.Log((float64(fails[k]) + 0.5) / (float64(trials[k]) + 1))
		}
		lp[k] = last
	}
	// Backfill counts below the first one the pilot drew.
	for k := maxK; k >= 1; k-- {
		if !math.IsNaN(lp[k]) {
			last = lp[k]
		}
		lp[k] = last
	}
	best := math.Inf(1)
	bestTheta := 0.0
	for i := 0; i <= 400; i++ {
		theta := float64(i) * 0.1
		v := logSumExpTilt(lq, theta, nil) + logSumExpTilt(lq, -theta, lp)
		if v < best {
			best = v
			bestTheta = theta
		}
	}
	return bestTheta
}

// logSumExpTilt computes ln Σ_{k≥1} exp(lq_k + θk + extra_k) stably;
// extra may be nil.
func logSumExpTilt(lq []float64, theta float64, extra []float64) float64 {
	maxK := len(lq) - 1
	m := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		t := lq[k] + theta*float64(k)
		if extra != nil {
			t += extra[k]
		}
		if t > m {
			m = t
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	s := 0.0
	for k := 1; k <= maxK; k++ {
		t := lq[k] + theta*float64(k)
		if extra != nil {
			t += extra[k]
		}
		if !math.IsInf(t, -1) {
			s += math.Exp(t - m)
		}
	}
	return m + math.Log(s)
}

// tiltedMean is E[k] under the θ-tilted conditional (k ≥ 1) law.
func tiltedMean(lq []float64, theta float64) float64 {
	maxK := len(lq) - 1
	m := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		if a := lq[k] + theta*float64(k); a > m {
			m = a
		}
	}
	var z, s float64
	for k := 1; k <= maxK; k++ {
		e := math.Exp(lq[k] + theta*float64(k) - m)
		z += e
		s += e * float64(k)
	}
	return s / z
}

// bisectTiltForMean solves tiltedMean(θ) = target on θ ∈ [0, 40]; the
// tilted mean is increasing in θ, and if even θ = 40 cannot reach the
// target the cap is returned.
func bisectTiltForMean(lq []float64, target float64) float64 {
	lo, hi := 0.0, 40.0
	if tiltedMean(lq, hi) < target {
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if tiltedMean(lq, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
