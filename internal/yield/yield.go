// Package yield implements the paper's combinatorial method for the
// evaluation of yield of fault-tolerant systems-on-chip, end to end:
//
//  1. map the defect model to the lethal-defect model (Q → Q', P → P'),
//  2. choose the truncation point M for the requested error bound ε,
//  3. synthesize the generalized function G(w, v_1..v_M),
//  4. order the variables (heuristics of Section 2),
//  5. compile the coded ROBDD of G gate by gate,
//  6. convert it to the ROMDD,
//  7. evaluate P(G = 1) by the probability-weighted traversal of the
//     frozen ROMDD, giving Y_M = 1 − P(G = 1) with Y_M ≤ Y ≤ Y_M + ε.
//
// An alternative build route (direct ROMDD construction via MDD apply
// — the ablation of the coded-ROBDD consensus claim), which ends in
// the same evaluation, is provided alongside, and so is CondFail: the
// conditional-failure vector 1 − Y_k by one dynamic program over the
// ROBDD of F itself, which BruteForce and package reliability use.
package yield

import (
	"errors"
	"fmt"
	"math"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// ErrNodeLimit reports that a decision-diagram engine exceeded
// Options.NodeLimit — the reproduction of the paper's "—" (memory
// exhaustion) entries. Every node-budget failure of this package
// matches it under errors.Is, whichever engine ran out, and still
// matches that engine's own sentinel (bdd.ErrNodeLimit for the ROBDD,
// mdd.ErrNodeLimit for the ROMDD).
var ErrNodeLimit = errors.New("yield: node limit exceeded")

// limitError is an engine's node-budget failure: it reads as the
// engine's error and also matches ErrNodeLimit.
type limitError struct{ error }

func (e limitError) Unwrap() []error { return []error{e.error, ErrNodeLimit} }

// stageErr reports err from the named build stage, marking an engine's
// node-budget failure as ErrNodeLimit.
func stageErr(stage string, err error) error {
	if errors.Is(err, bdd.ErrNodeLimit) || errors.Is(err, mdd.ErrNodeLimit) {
		err = limitError{err}
	}
	return fmt.Errorf("yield: %s: %w", stage, err)
}

// Component is one component of the system-on-chip.
type Component struct {
	// Name identifies the component (diagnostics only).
	Name string
	// P is the paper's P_i: the probability that a given manufacturing
	// defect affects this component and is lethal.
	P float64
}

// System describes a fault-tolerant system-on-chip: its components and
// the fault-tree function over their failed states.
type System struct {
	// Name labels the system in reports.
	Name string
	// Components lists the C components; Components[i] corresponds to
	// the i-th declared input of FaultTree.
	Components []Component
	// FaultTree computes 1 iff the system is NOT functioning, given
	// x_i = 1 iff component i is failed. Its inputs, in declaration
	// order, are the components.
	FaultTree *logic.Netlist
}

// Validate checks structural consistency of the system description.
func (s *System) Validate() error {
	if s == nil {
		return errors.New("yield: nil system")
	}
	if len(s.Components) < 2 {
		return fmt.Errorf("yield: system %q has %d components, need ≥ 2", s.Name, len(s.Components))
	}
	if s.FaultTree == nil {
		return fmt.Errorf("yield: system %q has no fault tree", s.Name)
	}
	if _, ok := s.FaultTree.Output(); !ok {
		return fmt.Errorf("yield: system %q fault tree has no output", s.Name)
	}
	if got := s.FaultTree.NumInputs(); got != len(s.Components) {
		return fmt.Errorf("yield: system %q fault tree has %d inputs for %d components", s.Name, got, len(s.Components))
	}
	for i, c := range s.Components {
		if !(c.P >= 0) || math.IsInf(c.P, 0) {
			return fmt.Errorf("yield: component %d (%s) has P = %v", i, c.Name, c.P)
		}
	}
	pl := s.PL()
	if pl <= 0 {
		return fmt.Errorf("yield: system %q has P_L = %v, need > 0", s.Name, pl)
	}
	if pl > 1 {
		return fmt.Errorf("yield: system %q has P_L = %v > 1", s.Name, pl)
	}
	return nil
}

// PL returns P_L = Σ_i P_i, the probability that a given defect is
// lethal, with roundPL's reading of a sum just above 1.
func (s *System) PL() float64 {
	pl := 0.0
	for _, c := range s.Components {
		pl += c.P
	}
	return roundPL(pl)
}

// roundPL takes a lethality sum that rounding put at most 1e-12 above
// 1 as exactly 1: 0.33 + 0.56 + 0.11 is 1.0000000000000002 in float64,
// which defects.Thin would reject. It is the one place the P_L
// tolerance is decided; a sum further above 1 is returned as is.
func roundPL(pl float64) float64 {
	if pl > 1 && pl <= 1+1e-12 {
		return 1
	}
	return pl
}

// Options configure an evaluation.
type Options struct {
	// Defects is the distribution of the number of manufacturing
	// defects (Q_k). Required.
	Defects defects.Distribution
	// Epsilon is the absolute error requirement on the yield; the
	// truncation point M is the smallest value meeting it.
	// Defaults to 1e-4.
	Epsilon float64
	// MVOrder is the ordering of the multiple-valued variables.
	// Defaults to the weight heuristic (the paper's best).
	MVOrder order.MVKind
	// BitOrder is the ordering of the bits inside each group.
	// Defaults to most-to-least significant (the paper's best).
	BitOrder order.BitKind
	// NodeLimit bounds live ROBDD nodes (and ROMDD nodes); 0 means
	// unlimited. Exceeding it aborts with ErrNodeLimit.
	NodeLimit int
	// Recorder, when non-nil, receives the run's metrics: the
	// decision-diagram engine counters (apply-cache hits/misses,
	// unique-table growth, GC activity) and the build's heap readings.
	// The phase timings are in Result.Phases. A nil Recorder disables
	// all metric recording at near-zero cost — hot paths guard on it.
	Recorder *obs.Registry
	// BuildState, when non-nil, receives live phase transitions and
	// work-unit progress (gates compiled, conversion entry nodes) as
	// the build runs; any goroutine may Snapshot it concurrently. This
	// is what the yieldd /v1/builds endpoint reads. Excluded from
	// ModelKey: it does not affect results.
	BuildState *obs.BuildState
	// Tracer, when non-nil, records one timed event per compiled gate
	// and one "phase" event per build phase and per build, with the
	// start and duration Result.Phases holds, for the Chrome trace
	// export. Excluded from ModelKey like Recorder and BuildState.
	Tracer *obs.Tracer
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Defects == nil {
		return out, errors.New("yield: Options.Defects is required")
	}
	if out.Epsilon == 0 {
		out.Epsilon = 1e-4
	}
	if !(out.Epsilon > 0 && out.Epsilon < 1) {
		return out, fmt.Errorf("yield: Epsilon = %v outside (0,1)", out.Epsilon)
	}
	if out.MVOrder == 0 {
		out.MVOrder = order.MVWeight
	}
	if out.BitOrder == 0 {
		out.BitOrder = order.BitML
	}
	if !order.Compatible(out.MVOrder, out.BitOrder) {
		return out, fmt.Errorf("yield: MV ordering %v cannot be combined with bit ordering %v", out.MVOrder, out.BitOrder)
	}
	if out.NodeLimit < 0 {
		return out, fmt.Errorf("yield: NodeLimit = %d < 0", out.NodeLimit)
	}
	return out, nil
}

// Phases records per-phase wall-clock times, covering the pipeline end
// to end: model preparation (thinning, truncation point), G-function
// synthesis, variable ordering, coded-ROBDD compilation, ROMDD
// conversion (freezing the ROMDD included), and probability
// evaluation.
type Phases struct {
	Prepare time.Duration
	Encode  time.Duration
	Order   time.Duration
	Compile time.Duration
	Convert time.Duration
	Eval    time.Duration
}

// Total returns the summed phase time.
func (p Phases) Total() time.Duration {
	return p.Prepare + p.Encode + p.Order + p.Compile + p.Convert + p.Eval
}

// Result reports the outcome of an evaluation.
type Result struct {
	// Yield is the pessimistic estimate Y_M; the true yield satisfies
	// Yield ≤ Y ≤ Yield + ErrorBound.
	Yield float64
	// ErrorBound is the actual tail mass beyond M (≤ Epsilon).
	ErrorBound float64
	// M is the truncation point used.
	M int
	// PL is Σ P_i; LambdaPrime the mean number of lethal defects.
	PL          float64
	LambdaPrime float64
	// GGates is the gate count of the synthesized G netlist;
	// BinaryVars its input count.
	GGates     int
	BinaryVars int
	// CodedROBDDSize is the node count of the final coded ROBDD;
	// ROBDDPeak the peak live ROBDD nodes over the whole run — the
	// maximum of the per-phase peaks Stats.CompilePeakLive and
	// Stats.ConvertPeakLive; ROMDDSize the node count of the ROMDD.
	CodedROBDDSize int
	ROBDDPeak      int
	ROMDDSize      int
	// Phases holds per-phase timings.
	Phases Phases
	// Stats aggregates the decision-diagram engines' internal
	// instrumentation (apply caches, unique tables, GC, per-layer
	// conversion work). It is populated by every route that builds
	// diagrams, independent of Options.Recorder.
	Stats EngineStats
}

// prepared carries the model quantities shared by all routes.
type prepared struct {
	opts   Options
	pprime []float64 // P'_i by component ordinal
	qprime []float64 // Q'_0..Q'_M
	tail   float64
	m      int
	pl     float64
	lethal defects.Distribution
}

// resolveM validates the inputs and resolves the truncation point
// M = min{m : Σ_{k≤m} Q'_k ≥ 1 − ε} from the lethal law and ε. It is
// the one place M is decided, so ModelKey and prepare agree on it.
func resolveM(sys *System, opts Options) (o Options, lethal defects.Distribution, m int, err error) {
	if o, err = opts.withDefaults(); err != nil {
		return o, nil, 0, err
	}
	if err = sys.Validate(); err != nil {
		return o, nil, 0, err
	}
	if lethal, err = defects.Thin(o.Defects, sys.PL()); err != nil {
		return o, nil, 0, err
	}
	m, _, err = defects.TruncationPoint(lethal, o.Epsilon)
	return o, lethal, m, err
}

func prepare(sys *System, opts Options) (*prepared, error) {
	o, lethal, m, err := resolveM(sys, opts)
	if err != nil {
		return nil, err
	}
	pl := sys.PL()
	qprime, tail, err := defects.PMFTable(lethal, m)
	if err != nil {
		return nil, err
	}
	pprime := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		pprime[i] = c.P / pl
	}
	return &prepared{opts: o, pprime: pprime, qprime: qprime, tail: tail, m: m, pl: pl, lethal: lethal}, nil
}

// wRow is the distribution of the paper's W: [Q'_0..Q'_M, tail].
func wRow(qprime []float64, tail float64) []float64 {
	row := make([]float64, len(qprime)+1)
	copy(row, qprime)
	row[len(qprime)] = tail
	return row
}

// probTable lays out the rows in MV-level order: w's row is wRow,
// every v_l's row is pprime.
func probTable(groupSeq []int, pprime, wRow []float64) [][]float64 {
	out := make([][]float64, len(groupSeq))
	for mvLevel, gi := range groupSeq {
		if gi == 0 {
			out[mvLevel] = wRow
		} else {
			out[mvLevel] = pprime
		}
	}
	return out
}

func (p *prepared) baseResult(g *encode.GFunc) *Result {
	return &Result{
		ErrorBound:  p.tail,
		M:           p.m,
		PL:          p.pl,
		LambdaPrime: p.lethal.Mean(),
		GGates:      g.Netlist.NumGates(),
		BinaryVars:  g.Netlist.NumInputs(),
	}
}

// groupMeta extracts the ordinal→(group, significance) maps from the
// synthesized G.
func groupMeta(g *encode.GFunc) (groupOf []int, bitOf []uint) {
	groupOf = make([]int, g.Netlist.NumInputs())
	bitOf = make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		nb := len(grp.Bits)
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(nb - 1 - j)
		}
	}
	return groupOf, bitOf
}

// Evaluate runs the full method of the paper and returns the yield
// estimate with its error bound and the structural statistics of
// Table 4. It is NewReevaluator's build and evaluation, so the two
// return the same yield bits under every variable ordering. When
// Options.Recorder is set, the engine counters flush into the
// registry; with Options.Tracer set, each phase and the whole build
// ("evaluate") are recorded as "phase" trace events.
//
// A failed compile or convert still returns (and publishes) what it
// built, together with the error.
func Evaluate(sys *System, opts Options) (*Result, error) {
	_, res, err := buildReevaluator("evaluate", sys, opts)
	if res != nil {
		res.Stats.publish(opts.Recorder)
	}
	return res, err
}

// EvaluateDirectMDD builds the ROMDD of G directly with MDD apply
// operations (the route of the ROMDD packages [23, 29] the paper
// argues against) and evaluates it as Evaluate does. For a given MV
// ordering the resulting canonical ROMDD freezes to the same snapshot
// as the converted one, so the yields are the same bits; what differs
// is the cost of construction — the quantity the ablation benchmark
// measures.
func EvaluateDirectMDD(sys *System, opts Options) (*Result, error) {
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	encDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Phases.Prepare = prepDur
	res.Phases.Encode = encDur
	// The heuristic orderings are defined on the binary netlist, so
	// compute the plan exactly as the main route does and reuse its
	// group sequence.
	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	mm, mroot, err := buildDirectMDD(sys.FaultTree, p.m, len(sys.Components), plan.GroupSeq, p.opts.NodeLimit)
	if err != nil {
		return res, stageErr("direct ROMDD construction", err)
	}
	res.Stats.MDD = mm.BuildStats()
	frozen := mm.Freeze(mroot)
	res.ROMDDSize = frozen.Size()
	res.Phases.Convert = time.Since(t0)
	t0 = time.Now()
	if _, err := evaluateFrozen(sys, p, frozen, plan.GroupSeq, res); err != nil {
		return nil, err
	}
	res.Phases.Eval = time.Since(t0)
	return res, nil
}

// buildDirectMDD constructs G(w, v_1..v_M) directly as an ROMDD: the
// filter gates become MDD literals and the fault tree is applied gate
// by gate.
func buildDirectMDD(f *logic.Netlist, m, c int, groupSeq []int, nodeLimit int) (*mdd.Manager, mdd.Node, error) {
	mvLevelOf := make([]int, len(groupSeq))
	domains := make([]int, len(groupSeq))
	naturalDomains := make([]int, len(groupSeq))
	naturalDomains[0] = m + 2
	for l := 1; l <= m; l++ {
		naturalDomains[l] = c
	}
	for mvLevel, gi := range groupSeq {
		mvLevelOf[gi] = mvLevel
		domains[mvLevel] = naturalDomains[gi]
	}
	mm, err := mdd.New(domains, mdd.WithNodeLimit(nodeLimit))
	if err != nil {
		return nil, mdd.False, err
	}
	wLevel := mvLevelOf[0]
	// x_i = ⋁_l [w ≥ l] ∧ [v_l = i].
	xs := make([]mdd.Node, c)
	for i := range xs {
		xs[i] = mdd.False
	}
	for l := 1; l <= m; l++ {
		geq, err := mm.LiteralGeq(wLevel, l)
		if err != nil {
			return nil, mdd.False, err
		}
		for i := 0; i < c; i++ {
			eq, err := mm.LiteralEq(mvLevelOf[l], i)
			if err != nil {
				return nil, mdd.False, err
			}
			term, err := mm.And(geq, eq)
			if err != nil {
				return nil, mdd.False, err
			}
			xs[i], err = mm.Or(xs[i], term)
			if err != nil {
				return nil, mdd.False, err
			}
		}
	}
	fOut, err := applyNetlistMDD(mm, f, xs)
	if err != nil {
		return nil, mdd.False, err
	}
	sat, err := mm.LiteralGeq(wLevel, m+1)
	if err != nil {
		return nil, mdd.False, err
	}
	root, err := mm.Or(sat, fOut)
	if err != nil {
		return nil, mdd.False, err
	}
	return mm, root, nil
}

// applyNetlistMDD evaluates a netlist over MDD-valued inputs.
func applyNetlistMDD(mm *mdd.Manager, f *logic.Netlist, inputs []mdd.Node) (mdd.Node, error) {
	out, ok := f.Output()
	if !ok {
		return mdd.False, logic.ErrNoOutput
	}
	vals := make(map[logic.GateID]mdd.Node, f.NumNodes())
	var verr error
	if err := f.VisitDepthFirst(func(id logic.GateID, g logic.Gate) {
		if verr != nil {
			return
		}
		var r mdd.Node
		var err error
		switch g.Kind {
		case logic.InputKind:
			r = inputs[f.InputOrdinal(id)]
		case logic.ConstKind:
			r = mdd.False
			if g.Value {
				r = mdd.True
			}
		case logic.NotKind:
			r, err = mm.Not(vals[g.Fanin[0]])
		case logic.AndKind, logic.NandKind:
			r = mdd.True
			for _, fid := range g.Fanin {
				if r, err = mm.And(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.NandKind {
				r, err = mm.Not(r)
			}
		case logic.OrKind, logic.NorKind:
			r = mdd.False
			for _, fid := range g.Fanin {
				if r, err = mm.Or(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.NorKind {
				r, err = mm.Not(r)
			}
		case logic.XorKind, logic.XnorKind:
			r = mdd.False
			for _, fid := range g.Fanin {
				if r, err = mm.Xor(r, vals[fid]); err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.XnorKind {
				r, err = mm.Not(r)
			}
		default:
			err = fmt.Errorf("yield: unknown gate kind %v", g.Kind)
		}
		if err != nil {
			verr = err
			return
		}
		vals[id] = r
	}); err != nil {
		return mdd.False, err
	}
	if verr != nil {
		return mdd.False, verr
	}
	return vals[out], nil
}

// BruteForce computes Y_M exactly (up to float64 rounding) from the
// conditional-failure vector of CondFail: one dynamic program over the
// ROBDD of F itself, with no G encoding, no MV ordering and no ROMDD.
// Its size is bounded by Options.NodeLimit on F's ROBDD, not by the
// component count. It shares the model preparation with Evaluate, and
// internal/bdd with it; ExactYield is the reference with no BDD. The
// Result carries the yield, its bound, M, P_L and λ′; it builds none of
// the diagrams the other fields describe.
func BruteForce(sys *System, opts Options) (*Result, error) {
	cf, err := NewCondFail(sys, opts)
	if err != nil {
		return nil, err
	}
	p := cf.p
	return &Result{Yield: cf.Yield(nil), ErrorBound: p.tail, M: p.m, PL: p.pl, LambdaPrime: p.lethal.Mean()}, nil
}
