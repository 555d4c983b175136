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
// counters are retained in Result (and stream into Options.Recorder
// when set).
func NewReevaluator(sys *System, opts Options) (*Reevaluator, error) {
	r, _, err := buildReevaluator("reevaluator-build", sys, opts)
	return r, err
}

// buildReevaluator is the one build-and-evaluate path of Evaluate and
// NewReevaluator: it runs the one-time build under a root span named
// span, freezes the ROMDD and fills the default model's yield by
// evaluateFrozen, then publishes the Result. On failure it returns a
// nil Reevaluator and, unpublished, the Result filled so far (nil
// unless compile or convert failed) for the caller to decide.
func buildReevaluator(span string, sys *System, opts Options) (*Reevaluator, *Result, error) {
	rec := opts.Recorder
	bs := opts.BuildState
	// The publisher starts (and its stop handshake runs) outside the
	// root span, so live publishing does not eat into the inter-phase
	// budget the span-coverage tests bound.
	stopLive := startLivePublisher(rec, bs)
	defer stopLive()
	rootSpan := rec.Span(span)
	defer rootSpan.End()
	defer bs.Finish()

	md, err := build(rootSpan, sys, opts)
	if err != nil {
		return nil, md.res, err
	}
	res := md.res

	// Freeze the ROMDD into an immutable compact snapshot: the manager
	// (with its construction hash tables) becomes garbage, and every
	// later evaluation is a goroutine-safe linear pass.
	bs.StartPhase(obs.BuildEval, 0)
	sp := rootSpan.Child("eval")
	t0 := time.Now()
	r, err := evaluateFrozen(sys, md.p, md.mm.Freeze(md.root), md.plan.GroupSeq, res)
	res.Phases.Eval = time.Since(t0)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	// Publishing is bookkeeping after the build, outside the root span.
	rootSpan.End()
	res.Stats.publish(rec)
	publishResult(rec, res)
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
	if !(pl > 0 && pl <= 1+1e-12) {
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
// row [Q'_0..Q'_M, tail].
func (r *Reevaluator) lawRow(dist defects.Distribution, pl float64) ([]float64, error) {
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		return nil, err
	}
	qprime, tail, err := defects.PMFTable(lethal, r.m)
	if err != nil {
		return nil, err
	}
	return wRow(qprime, tail), nil
}

// lawYield folds the law row of dist at P_L = pl into a lethality
// vector's split pass (g, s). It is the shared core of Yield and Sweep,
// which keeps their results bit-identical by construction.
func (r *Reevaluator) lawYield(dist defects.Distribution, pl float64, g []float64, s float64) (yield, errorBound float64, err error) {
	w, err := r.lawRow(dist, pl)
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
// ∂w/∂P_L is closed-form for negative binomial and Poisson laws. For
// other laws it is a central difference of the tabulated law in P_L
// with step delta (default 1e-4·P_L when 0), one-sided where P_L ±
// delta leaves (0,1]; delta is not used otherwise. No ROMDD pass
// depends on delta.
func (r *Reevaluator) Sensitivities(ps []float64, dist defects.Distribution, delta float64) ([]float64, error) {
	pprime, pl, err := r.lethality(ps)
	if err != nil {
		return nil, err
	}
	if delta == 0 {
		delta = 1e-4 * pl
	}
	if !(delta > 0) {
		return nil, fmt.Errorf("yield: non-positive step %v", delta)
	}
	w, err := r.lawRow(dist, pl)
	if err != nil {
		return nil, err
	}
	dw, err := r.lawSlope(dist, pl, delta, w)
	if err != nil {
		return nil, err
	}
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

// lawSlope returns ∂w/∂P_L for the W row w of dist at P_L = pl: in
// closed form where the defects package has one, else by the scalar
// difference of numericLawSlope with step h.
func (r *Reevaluator) lawSlope(dist defects.Distribution, pl, h float64, w []float64) ([]float64, error) {
	dq, ok := defects.ThinSlope(dist, pl, w[:r.m+1])
	if !ok {
		return r.numericLawSlope(dist, pl, h, w)
	}
	// The tail is 1 − Σ_k Q'_k.
	dtail := 0.0
	for _, d := range dq {
		dtail -= d
	}
	return append(dq, dtail), nil
}

// numericLawSlope is the central difference (w(P_L+h) − w(P_L−h))/2h
// of the tabulated law, one-sided on the side where P_L ± h leaves
// (0,1]. It costs two law tabulations and no ROMDD pass.
func (r *Reevaluator) numericLawSlope(dist defects.Distribution, pl, h float64, w []float64) ([]float64, error) {
	lo, hi := pl-h, pl+h
	wLo, wHi := w, w
	var err error
	switch {
	case hi > 1 && lo <= 0:
		return nil, fmt.Errorf("yield: step %v leaves (0,1] on both sides of P_L = %v", h, pl)
	case hi > 1:
		hi = pl
	case lo <= 0:
		lo = pl
	}
	if hi != pl {
		if wHi, err = r.lawRow(dist, hi); err != nil {
			return nil, err
		}
	}
	if lo != pl {
		if wLo, err = r.lawRow(dist, lo); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(w))
	for k := range out {
		out[k] = (wHi[k] - wLo[k]) / (hi - lo)
	}
	return out, nil
}
