package yield

import (
	"fmt"
	"time"

	"socyield/internal/defects"
	"socyield/internal/mdd"
	"socyield/internal/obs"
)

// Reevaluator holds the ROMDD of a system built once for a fixed
// truncation point M, and reevaluates the yield for different defect
// models without rebuilding any decision diagram.
//
// Every evaluation follows the paper's Y = Σ_k Q'_k·Y_k. One linear
// ROMDD pass, split at the defect-count variable W, turns the
// lethality vector P' into the conditional-failure vector (the
// probabilities 1 − Y_k); the defect law only supplies the O(M) row
// Q', which a dot product folds in. So what-if evaluations over
// per-component lethalities P_i (e.g. from successive layout
// iterations) cost one pass each, and evaluations over defect
// distributions at fixed P_i cost M+2 multiply-adds each once the
// vector exists.
//
// The truncation point is fixed at construction: reevaluations supply
// their own Q'-table truncated at the same M.
//
// After construction the Reevaluator is immutable — the ROMDD lives in
// a frozen snapshot and every evaluation allocates its own scratch
// state — so Yield, YieldRaw and Sensitivities may be called
// concurrently from any number of goroutines on one shared instance.
// Sweep fans a whole grid of evaluation points out over a worker pool.
type Reevaluator struct {
	sys      *System
	m        int
	frozen   *mdd.Frozen
	groupSeq []int
	// wLevel is the MV level of W, the level the ROMDD pass splits at.
	wLevel int
	// Stats of the one-time build.
	Result *Result
}

// newReevaluator assembles a Reevaluator around a frozen ROMDD whose
// MV levels follow groupSeq (exactly one entry is W's group 0).
func newReevaluator(sys *System, m int, frozen *mdd.Frozen, groupSeq []int, res *Result) *Reevaluator {
	r := &Reevaluator{sys: sys, m: m, frozen: frozen, groupSeq: groupSeq, Result: res}
	for mvLevel, gi := range groupSeq {
		if gi == 0 {
			r.wLevel = mvLevel
		}
	}
	return r
}

// NewReevaluator runs the construction phases of Evaluate (using
// opts.Defects only to fix M) and retains the ROMDD. The one-time
// build's per-phase wall times, structural statistics and engine
// counters are retained in Result (the engine counters also stream
// into Options.Recorder when set).
func NewReevaluator(sys *System, opts Options) (*Reevaluator, error) {
	r, res, err := buildReevaluator("reevaluator-build", sys, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.publish(opts.Recorder)
	return r, nil
}

// buildReevaluator is the one build-and-evaluate path of Evaluate and
// NewReevaluator: it runs the one-time build and fills the default
// model's yield from the frozen ROMDD by evaluateFrozen. With
// Options.Tracer set, the eval phase and then the whole build, named
// name, are recorded as "phase" events beside build's phases. On
// failure it returns a nil Reevaluator and the Result filled so far
// (nil unless compile or convert failed) for the caller to decide
// whether to publish it.
func buildReevaluator(name string, sys *System, opts Options) (*Reevaluator, *Result, error) {
	bs, tr := opts.BuildState, opts.Tracer
	defer bs.Finish()
	start := time.Now()
	defer func() { tr.Event(name, phaseCat, start, time.Since(start), nil) }()

	md, err := build(sys, opts)
	if err != nil {
		return nil, md.res, err
	}
	res := md.res

	bs.StartPhase(obs.BuildEval, 0)
	t0 := time.Now()
	r, err := evaluateFrozen(sys, md.p, md.frozen, md.plan.GroupSeq, res)
	res.Phases.Eval = time.Since(t0)
	tr.Event("eval", phaseCat, t0, res.Phases.Eval, nil)
	if err != nil {
		return nil, nil, err
	}
	return r, res, nil
}

// evaluateFrozen wraps a frozen ROMDD, whose MV levels follow
// groupSeq, in a Reevaluator and fills res.Yield for the prepared
// model by the path every reevaluation takes: the pass split at W,
// folded with the W row. Every build route ends here, so all of them
// give the same yield bits for the same diagram.
func evaluateFrozen(sys *System, p *prepared, frozen *mdd.Frozen, groupSeq []int, res *Result) (*Reevaluator, error) {
	r := newReevaluator(sys, p.m, frozen, groupSeq, res)
	g, s, err := r.condVector(p.pprime, nil)
	if err != nil {
		return nil, err
	}
	res.Yield = yieldOf(wRow(p.qprime, p.tail), g, s)
	return r, nil
}

// M returns the truncation point the ROMDD was built for.
func (r *Reevaluator) M() int { return r.m }

// NumComponents returns the component count of the system the ROMDD
// was built for — the length Yield/YieldRaw/Sensitivities inputs must
// have. Callers sharing a Reevaluator through a keyed cache use it to
// cross-check a request against the compiled model.
func (r *Reevaluator) NumComponents() int { return len(r.sys.Components) }

// YieldRaw reevaluates with explicit lethal-model inputs: pprime is
// P'_1..P'_C (must sum to ≈1), qprime is Q'_0..Q'_M and tail the
// remaining mass (qprime must have exactly M+1 entries).
func (r *Reevaluator) YieldRaw(pprime, qprime []float64, tail float64) (float64, error) {
	if len(pprime) != len(r.sys.Components) {
		return 0, fmt.Errorf("yield: pprime has %d entries, want %d", len(pprime), len(r.sys.Components))
	}
	if len(qprime) != r.m+1 {
		return 0, fmt.Errorf("yield: qprime has %d entries, want %d", len(qprime), r.m+1)
	}
	g, s, err := r.condVector(pprime, nil)
	if err != nil {
		return 0, err
	}
	return yieldOf(wRow(qprime, tail), g, s), nil
}

// Yield reevaluates for new per-component lethalities ps (the paper's
// P_i, summing to the new P_L) and a new defect distribution,
// performing the lethal transform internally. The truncation point
// stays at the construction-time M; the returned error bound is the
// new tail mass beyond it.
func (r *Reevaluator) Yield(ps []float64, dist defects.Distribution) (yield, errorBound float64, err error) {
	pprime, pl, err := r.lethality(ps)
	if err != nil {
		return 0, 0, err
	}
	g, s, err := r.condVector(pprime, nil)
	if err != nil {
		return 0, 0, err
	}
	return r.lawYield(dist, pl, g, s)
}

// lethality validates the per-component lethalities ps and returns
// P'_i = P_i/P_L and P_L.
func (r *Reevaluator) lethality(ps []float64) (pprime []float64, pl float64, err error) {
	if len(ps) != len(r.sys.Components) {
		return nil, 0, fmt.Errorf("yield: ps has %d entries, want %d", len(ps), len(r.sys.Components))
	}
	for i, p := range ps {
		if !(p >= 0) {
			return nil, 0, fmt.Errorf("yield: component %d has P = %v", i, p)
		}
		pl += p
	}
	pl = roundPL(pl)
	if !(pl > 0 && pl <= 1) {
		return nil, 0, fmt.Errorf("yield: P_L = %v outside (0,1]", pl)
	}
	pprime = make([]float64, len(ps))
	for i, p := range ps {
		pprime[i] = p / pl
	}
	return pprime, pl, nil
}

// condVector runs the one ROMDD pass of an evaluation: split at W, it
// gives g and s with P(G = 1) = Σ_k w_k·g[k] + s for every W row w, so
// g[k] + s = 1 − Y_k is the conditional-failure vector of pprime.
func (r *Reevaluator) condVector(pprime []float64, buf *mdd.PassBuffer) (g []float64, s float64, err error) {
	return r.frozen.Split(probTable(r.groupSeq, pprime, nil), r.wLevel, buf)
}

// lawRow tabulates the lethal defect law of dist at P_L = pl: the W
// row [Q'_0..Q'_M, tail], and the thinned law it was read from.
func (r *Reevaluator) lawRow(dist defects.Distribution, pl float64) ([]float64, defects.Distribution, error) {
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		return nil, nil, err
	}
	qprime, tail, err := defects.PMFTable(lethal, r.m)
	if err != nil {
		return nil, nil, err
	}
	return wRow(qprime, tail), lethal, nil
}

// lawYield folds the law row of dist at P_L = pl into a lethality
// vector's split pass (g, s). It is the shared core of Yield and Sweep,
// which keeps their results bit-identical by construction.
func (r *Reevaluator) lawYield(dist defects.Distribution, pl float64, g []float64, s float64) (yield, errorBound float64, err error) {
	w, _, err := r.lawRow(dist, pl)
	if err != nil {
		return 0, 0, err
	}
	return yieldOf(w, g, s), w[r.m+1], nil
}

// yieldOf is Y_M = 1 − P(G = 1) for the W row w and a split pass
// (g, s).
func yieldOf(w, g []float64, s float64) float64 {
	return 1 - mdd.Fold(w, g, s)
}

// Sensitivities returns ∂Y/∂P_i for every component: the derivative
// with respect to the component's absolute lethality P_i, everything
// else fixed — the quantity a designer trades layout area against.
//
// The derivative is exact, by reverse mode over two ROMDD passes. A
// forward and a reverse pass give ∂P(G=1)/∂P'_j summed over the v_l
// levels (G_j) and the conditional-failure vector g over the W level.
// The chain rule through P'_j = P_j/P_L and the W row w(P_L) then
// gives
//
//	∂Y/∂P_i = −[(G_i − Σ_j P'_j·G_j)/P_L + Σ_k g_k·∂w_k/∂P_L].
//
// ∂w/∂P_L is exact for every law (lawSlope). delta is not read; it
// remains in the signature for existing callers.
func (r *Reevaluator) Sensitivities(ps []float64, dist defects.Distribution, delta float64) ([]float64, error) {
	pprime, pl, err := r.lethality(ps)
	if err != nil {
		return nil, err
	}
	w, lethal, err := r.lawRow(dist, pl)
	if err != nil {
		return nil, err
	}
	dw := lawSlope(w, lethal.PMF(r.m+1), pl)
	_, grad, err := r.frozen.Grad(probTable(r.groupSeq, pprime, w))
	if err != nil {
		return nil, err
	}
	gp := make([]float64, len(ps))
	for mvLevel, gi := range r.groupSeq {
		if gi != 0 {
			for j, d := range grad[mvLevel] {
				gp[j] += d
			}
		}
	}
	mean := 0.0
	for j, p := range pprime {
		mean += p * gp[j]
	}
	law := 0.0
	for k, d := range dw {
		law += grad[r.wLevel][k] * d
	}
	out := make([]float64, len(ps))
	for i := range out {
		out[i] = -((gp[i]-mean)/pl + law)
	}
	return out, nil
}

// lawSlope returns ∂w/∂P_L for the W row w = [Q'_0..Q'_M, tail] at
// P_L = pl, given next = Q'_{M+1}. Differentiating eq. (1),
// Q'_k = Σ_m Q_m·C(m,k)·P_L^k·(1−P_L)^(m−k), in P_L gives for any
// defect law
//
//	∂Q'_k/∂P_L = (k·Q'_k − (k+1)·Q'_{k+1})/P_L,
//	∂tail/∂P_L = (M+1)·Q'_{M+1}/P_L,
//
// the second by telescoping the first, since tail = 1 − Σ_{k≤M} Q'_k.
// At P_L = 1 it is the slope from below.
func lawSlope(w []float64, next, pl float64) []float64 {
	m := len(w) - 2
	dw := make([]float64, len(w))
	for k := 0; k <= m; k++ {
		up := next
		if k < m {
			up = w[k+1]
		}
		dw[k] = (float64(k)*w[k] - float64(k+1)*up) / pl
	}
	dw[m+1] = float64(m+1) * next / pl
	return dw
}
