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
// models without rebuilding any decision diagram. The probability
// traversal is linear in the ROMDD size, so what-if sweeps over
// per-component lethalities P_i (e.g. from successive layout
// iterations) or over defect distributions cost microseconds instead
// of the full pipeline.
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
	// Stats of the one-time build.
	Result *Result
}

// NewReevaluator runs the construction phases of Evaluate (using
// opts.Defects only to fix M) and retains the ROMDD. The one-time
// build's per-phase wall times, structural statistics and engine
// counters are retained in Result (and stream into Options.Recorder
// when set).
func NewReevaluator(sys *System, opts Options) (*Reevaluator, error) {
	rec := opts.Recorder
	bs := opts.BuildState
	// As in Evaluate: publisher start/stop stays outside the root span.
	stopLive := startLivePublisher(rec, bs)
	defer stopLive()
	buildSpan := rec.Span("reevaluator-build")
	defer buildSpan.End()
	defer bs.Finish()

	md, err := build(buildSpan, sys, opts)
	if err != nil {
		return nil, err
	}
	res := md.res

	// Freeze the ROMDD into an immutable compact snapshot: the manager
	// (with its construction hash tables) becomes garbage, and every
	// later evaluation is a goroutine-safe linear pass.
	bs.StartPhase(obs.BuildEval, 0)
	sp := buildSpan.Child("eval")
	t0 := time.Now()
	frozen := md.mm.Freeze(md.root)
	// Fill the default model's yield for convenience.
	pg1, err := frozen.Prob(md.p.probTable(md.plan.GroupSeq))
	res.Phases.Eval = time.Since(t0)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Yield = 1 - pg1
	// Publishing is bookkeeping after the build, outside the root span.
	buildSpan.End()
	res.Stats.publish(rec)
	publishResult(rec, res)
	return &Reevaluator{
		sys:      sys,
		m:        md.p.m,
		frozen:   frozen,
		groupSeq: md.plan.GroupSeq,
		Result:   res,
	}, nil
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
	return r.yieldRawWith(pprime, qprime, tail, nil)
}

// yieldRawWith is YieldRaw with optional caller-owned scratch space
// for the ROMDD pass (nil allocates per call). The arithmetic is
// identical either way, so buffered and unbuffered calls are
// bit-identical.
func (r *Reevaluator) yieldRawWith(pprime, qprime []float64, tail float64, buf *mdd.ProbBuffer) (float64, error) {
	if len(pprime) != len(r.sys.Components) {
		return 0, fmt.Errorf("yield: pprime has %d entries, want %d", len(pprime), len(r.sys.Components))
	}
	if len(qprime) != r.m+1 {
		return 0, fmt.Errorf("yield: qprime has %d entries, want %d", len(qprime), r.m+1)
	}
	wRow := make([]float64, r.m+2)
	copy(wRow, qprime)
	wRow[r.m+1] = tail
	probs := make([][]float64, len(r.groupSeq))
	for mvLevel, gi := range r.groupSeq {
		if gi == 0 {
			probs[mvLevel] = wRow
		} else {
			probs[mvLevel] = pprime
		}
	}
	var pg1 float64
	var err error
	if buf != nil {
		pg1, err = r.frozen.ProbWith(probs, buf)
	} else {
		pg1, err = r.frozen.Prob(probs)
	}
	if err != nil {
		return 0, err
	}
	return 1 - pg1, nil
}

// Sensitivities returns ∂Y/∂P_i for every component by central finite
// differences on the ROMDD (two traversals per component, no diagram
// rebuilding). The derivative is taken with respect to the component's
// absolute lethality P_i, everything else fixed — the quantity a
// designer trades layout area against. delta is the relative step
// (default 1e-4 of P_L when 0).
func (r *Reevaluator) Sensitivities(ps []float64, dist defects.Distribution, delta float64) ([]float64, error) {
	if len(ps) != len(r.sys.Components) {
		return nil, fmt.Errorf("yield: ps has %d entries, want %d", len(ps), len(r.sys.Components))
	}
	pl := 0.0
	for _, p := range ps {
		pl += p
	}
	if delta == 0 {
		delta = 1e-4 * pl
	}
	if !(delta > 0) {
		return nil, fmt.Errorf("yield: non-positive step %v", delta)
	}
	out := make([]float64, len(ps))
	work := make([]float64, len(ps))
	var buf mdd.ProbBuffer
	for i := range ps {
		copy(work, ps)
		lo := ps[i] - delta
		hi := ps[i] + delta
		if lo < 0 {
			lo = 0
		}
		work[i] = hi
		yHi, _, err := r.yieldWith(work, dist, &buf)
		if err != nil {
			return nil, err
		}
		work[i] = lo
		yLo, _, err := r.yieldWith(work, dist, &buf)
		if err != nil {
			return nil, err
		}
		out[i] = (yHi - yLo) / (hi - lo)
	}
	return out, nil
}

// Yield reevaluates for new per-component lethalities ps (the paper's
// P_i, summing to the new P_L) and a new defect distribution,
// performing the lethal transform internally. The truncation point
// stays at the construction-time M; the returned error bound is the
// new tail mass beyond it.
func (r *Reevaluator) Yield(ps []float64, dist defects.Distribution) (yield, errorBound float64, err error) {
	return r.yieldWith(ps, dist, nil)
}

// yieldWith is Yield with optional reusable scratch space; it is the
// shared core of the serial and the parallel (Sweep) paths, which
// keeps their results bit-identical by construction.
func (r *Reevaluator) yieldWith(ps []float64, dist defects.Distribution, buf *mdd.ProbBuffer) (yield, errorBound float64, err error) {
	if len(ps) != len(r.sys.Components) {
		return 0, 0, fmt.Errorf("yield: ps has %d entries, want %d", len(ps), len(r.sys.Components))
	}
	pl := 0.0
	for i, p := range ps {
		if !(p >= 0) {
			return 0, 0, fmt.Errorf("yield: component %d has P = %v", i, p)
		}
		pl += p
	}
	if !(pl > 0 && pl <= 1+1e-12) {
		return 0, 0, fmt.Errorf("yield: P_L = %v outside (0,1]", pl)
	}
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		return 0, 0, err
	}
	qprime, tail, err := defects.PMFTable(lethal, r.m)
	if err != nil {
		return 0, 0, err
	}
	pprime := make([]float64, len(ps))
	for i, p := range ps {
		pprime[i] = p / pl
	}
	y, err := r.yieldRawWith(pprime, qprime, tail, buf)
	if err != nil {
		return 0, 0, err
	}
	return y, tail, nil
}
