// Package reliability implements the extension the paper's conclusion
// announces as future work: evaluating the operational reliability of
// a fault-tolerant system-on-chip taking manufacturing defects into
// account.
//
// Model. A die leaves the fab with a random set of defective
// components, distributed exactly as in the yield model (lethal-defect
// count W ~ Q', hits V_l ~ P'). In the field, every component i fails
// independently by time t with probability 1 − R_i(t) (exponential or
// Weibull lifetimes). The system is operational at time t iff the
// fault tree evaluates to 0 on the union of manufacturing-defective
// and field-failed components, so
//
//	R(t) = 1 − P( G(W, V_1..V_M) ∨-composed with field failures = 1 ).
//
// Construction: every fault-tree input x_i is replaced by x_i ∨ b_i,
// where b_i is a fresh independent Bernoulli("field failure of i by
// t") variable; the defect part is encoded exactly as in the yield
// method (Theorem 1) and the b_i remain free binary variables ordered
// after the defect groups. One coded ROBDD is built once; each time
// point costs a single probability traversal in which group layers are
// walked per domain value and b_i levels are weighted by 1 − R_i(t).
// R(0) equals the manufacturing yield Y_M, and every point inherits
// the truncation error bound ≤ ε.
package reliability

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// Lifetime models a component's field-failure process.
type Lifetime interface {
	// Unreliability returns P(component failed by time t), t ≥ 0.
	Unreliability(t float64) float64
	String() string
}

// Exponential is a constant-failure-rate lifetime.
type Exponential struct {
	// Rate is the failure rate λ (per unit time), ≥ 0.
	Rate float64
}

// Unreliability returns 1 − e^(−λt).
func (e Exponential) Unreliability(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * t)
}

func (e Exponential) String() string { return fmt.Sprintf("Exponential(λ=%g)", e.Rate) }

// Weibull is a shape-parameterized lifetime (β > 1: wear-out; β < 1:
// infant mortality).
type Weibull struct {
	Scale float64 // η > 0
	Shape float64 // β > 0
}

// Unreliability returns 1 − e^(−(t/η)^β).
func (w Weibull) Unreliability(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(t/w.Scale, w.Shape))
}

func (w Weibull) String() string { return fmt.Sprintf("Weibull(η=%g, β=%g)", w.Scale, w.Shape) }

// Options configure a reliability evaluation.
type Options struct {
	// Defects is the manufacturing defect distribution (required).
	Defects defects.Distribution
	// Epsilon is the truncation error requirement on the manufacturing
	// layer (default 1e-4). The reported reliability is pessimistic by
	// at most this much at every time point.
	Epsilon float64
	// Lifetimes gives each component's field-failure model, indexed
	// like System.Components (required, same length).
	Lifetimes []Lifetime
	// MVOrder / BitOrder order the defect variables as in yield.
	MVOrder  order.MVKind
	BitOrder order.BitKind
	// NodeLimit bounds ROBDD nodes (0 = unlimited).
	NodeLimit int
}

// Point is the reliability at one time.
type Point struct {
	T           float64
	Reliability float64 // pessimistic estimate, error ≤ ErrorBound
	ErrorBound  float64
}

// Result is a reliability curve.
type Result struct {
	Points []Point
	// YieldAtZero is R(0), which equals the manufacturing yield Y_M.
	YieldAtZero float64
	// M is the manufacturing truncation point; stats mirror yield.Result.
	M              int
	CodedROBDDSize int
	ROBDDPeak      int
	BuildTime      time.Duration
}

// Curve evaluates the operational reliability at the given time
// points. The construction (one coded ROBDD over defect variables and
// one Bernoulli variable per component) is done once; each time point
// is a probability traversal.
func Curve(sys *yield.System, opts Options, times []float64) (*Result, error) {
	if opts.Defects == nil {
		return nil, errors.New("reliability: Options.Defects is required")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	c := len(sys.Components)
	if len(opts.Lifetimes) != c {
		return nil, fmt.Errorf("reliability: %d lifetimes for %d components", len(opts.Lifetimes), c)
	}
	for i, lt := range opts.Lifetimes {
		if lt == nil {
			return nil, fmt.Errorf("reliability: nil lifetime for component %d", i)
		}
	}
	if len(times) == 0 {
		return nil, errors.New("reliability: no time points")
	}
	for _, t := range times {
		if t < 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("reliability: invalid time point %v", t)
		}
	}
	eps := opts.Epsilon
	if eps == 0 {
		eps = 1e-4
	}
	mv := opts.MVOrder
	if mv == 0 {
		mv = order.MVWeight
	}
	bits := opts.BitOrder
	if bits == 0 {
		bits = order.BitML
	}
	if !order.Compatible(mv, bits) {
		return nil, fmt.Errorf("reliability: MV ordering %v incompatible with bit ordering %v", mv, bits)
	}

	pl := sys.PL()
	lethal, err := defects.Thin(opts.Defects, pl)
	if err != nil {
		return nil, err
	}
	m, _, err := defects.TruncationPoint(lethal, eps)
	if err != nil {
		return nil, err
	}
	qprime, tail, err := defects.PMFTable(lethal, m)
	if err != nil {
		return nil, err
	}

	// Extend the fault tree: x_i becomes x_i ∨ b_i where b_i is the
	// component's field-failure indicator, a fresh input declared
	// AFTER the original ones so the defect encoding is untouched.
	ft := sys.FaultTree
	ext := logic.New()
	orig := make([]logic.GateID, c)
	for i, name := range ft.InputNames() {
		orig[i] = ext.Input(name)
	}
	field := make([]logic.GateID, c)
	for i, name := range ft.InputNames() {
		field[i] = ext.Input("field." + name)
	}
	sub := make(map[logic.GateID]logic.GateID, ft.NumNodes())
	var copyGate func(id logic.GateID) logic.GateID
	copyGate = func(id logic.GateID) logic.GateID {
		if to, ok := sub[id]; ok {
			return to
		}
		g := ft.Gate(id)
		var to logic.GateID
		switch g.Kind {
		case logic.InputKind:
			ordI := ft.InputOrdinal(id)
			to = ext.Or(orig[ordI], field[ordI])
		case logic.ConstKind:
			to = ext.Const(g.Value)
		default:
			fan := make([]logic.GateID, len(g.Fanin))
			for j, f := range g.Fanin {
				fan[j] = copyGate(f)
			}
			switch g.Kind {
			case logic.NotKind:
				to = ext.Not(fan[0])
			case logic.AndKind:
				to = ext.And(fan...)
			case logic.OrKind:
				to = ext.Or(fan...)
			case logic.NandKind:
				to = ext.Nand(fan...)
			case logic.NorKind:
				to = ext.Nor(fan...)
			case logic.XorKind:
				to = ext.Xor(fan...)
			case logic.XnorKind:
				to = ext.Xnor(fan...)
			default:
				panic(fmt.Sprintf("reliability: unknown gate kind %v", g.Kind))
			}
		}
		sub[id] = to
		return to
	}
	ext.SetOutput(copyGate(ft.MustOutput()))

	// Synthesize G over the extended tree: only the first c inputs are
	// defect-addressable (keeping the v-domain at C); the field bits
	// pass through as free binary variables.
	gfun, err := encode.BuildGPartial(ext, c, m)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	plan, err := order.Assemble(gfun.Netlist, gfun.Groups, mv, bits)
	if err != nil {
		return nil, err
	}
	// Field bits are not members of any group; Assemble only orders
	// group bits, so place field bits after all groups.
	levels := plan.BinaryLevels
	next := len(plan.BitAtLevel)
	fieldOrds := make([]int, 0, c)
	for ordI, lv := range levels {
		if lv == -1 {
			levels[ordI] = next
			next++
			fieldOrds = append(fieldOrds, ordI)
		}
	}
	bm := bdd.New(gfun.Netlist.NumInputs(), bdd.WithNodeLimit(opts.NodeLimit))
	root, err := compile.Netlist(bm, gfun.Netlist, levels)
	if err != nil {
		return nil, fmt.Errorf("reliability: compiling ROBDD: %w", err)
	}
	res := &Result{
		M:              m,
		CodedROBDDSize: bm.Size(root),
		ROBDDPeak:      bm.PeakLive(),
		BuildTime:      time.Since(start),
	}

	// Probability data per binary level.
	pprime := make([]float64, c)
	for i, comp := range sys.Components {
		pprime[i] = comp.P / pl
	}
	wRow := make([]float64, m+2)
	copy(wRow, qprime)
	wRow[m+1] = tail

	// For the traversal we need, per BDD level, either (a) membership
	// of a defect group with bit significance, or (b) a direct
	// Bernoulli probability (field bits).
	type levelInfo struct {
		group int // -1 for field bits
		bit   uint
		comp  int // component index for field bits
	}
	info := make([]levelInfo, gfun.Netlist.NumInputs())
	for gi, grp := range gfun.Groups {
		nb := len(grp.Bits)
		for j, ordI := range grp.Bits {
			info[levels[ordI]] = levelInfo{group: gi, bit: uint(nb - 1 - j)}
		}
	}
	names := gfun.Netlist.InputNames()
	ftNames := ft.InputNames()
	nameToComp := make(map[string]int, c)
	for i, nm := range ftNames {
		nameToComp[nm] = i
	}
	for _, ordI := range fieldOrds {
		nm := names[ordI]
		ci, ok := nameToComp[nm[len("field."):]]
		if !ok {
			return nil, fmt.Errorf("reliability: cannot map field input %q", nm)
		}
		info[levels[ordI]] = levelInfo{group: -1, comp: ci}
	}
	groupProb := func(gi, val int) float64 {
		if gi == 0 {
			return wRow[val]
		}
		return pprime[val]
	}
	domains := gfun.Domains()

	// failProb is one traversal of the ROBDD, memoized on (node), with
	// field bit i failed with probability unrel[i]: it is 1 − R at
	// those unreliabilities.
	failProb := func(unrel []float64) float64 {
		// Handle-indexed memo (the ROBDD is read-only here, so handle
		// values are bounded by NodeBound).
		memo := make([]float64, bm.NodeBound())
		seen := make([]bool, bm.NodeBound())
		var walk func(n bdd.Node) float64
		walk = func(n bdd.Node) float64 {
			if n == bdd.False {
				return 0
			}
			if n == bdd.True {
				return 1
			}
			if seen[n] {
				return memo[n]
			}
			li := info[bm.Level(n)]
			var total float64
			if li.group == -1 {
				u := unrel[li.comp]
				total = (1-u)*walk(bm.Lo(n)) + u*walk(bm.Hi(n))
			} else {
				// Walk the group's bit layer per domain value.
				for val := 0; val < domains[li.group]; val++ {
					p := groupProb(li.group, val)
					if p == 0 {
						continue
					}
					cur := n
					for !bm.IsTerminal(cur) && info[bm.Level(cur)].group == li.group {
						if val&(1<<info[bm.Level(cur)].bit) != 0 {
							cur = bm.Hi(cur)
						} else {
							cur = bm.Lo(cur)
						}
					}
					total += p * walk(cur)
				}
			}
			memo[n] = total
			seen[n] = true
			return total
		}
		return walk(root)
	}

	// One traversal per time point.
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	for _, t := range sorted {
		unrel := make([]float64, c)
		for i, lt := range opts.Lifetimes {
			u := lt.Unreliability(t)
			if u < 0 || u > 1 || math.IsNaN(u) {
				return nil, fmt.Errorf("reliability: lifetime %d returned %v at t=%v", i, u, t)
			}
			unrel[i] = u
		}
		rel := 1 - failProb(unrel)
		res.Points = append(res.Points, Point{T: t, Reliability: rel, ErrorBound: tail})
	}
	// R(0) = Y_M: the traversal with no field failures.
	res.YieldAtZero = 1 - failProb(make([]float64, c))
	return res, nil
}
