package yield

import (
	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/order"
)

// CondFail is the fault tree F compiled once on its own ROBDD (C
// variables, no G encoding), ready to give the conditional-failure
// vector 1 − Y_k, k = 0..M, by one dynamic program over its nodes.
//
// Theorem 1 makes the hits V_1..V_k of k lethal defects independent and
// distributed as P', so the hit counts per component are multinomial.
// At a node on component i with r defects left to place among i and
// the components below it, j ~ Bin(r, P'_i/q_i) of them land on i,
// where q_i is the P' mass of i and every component at a lower level.
// The lo edge takes j = 0 and the hi edge the rest; an edge that skips
// levels thins the r − j remaining defects once, binomially, by the
// ratio of the masses at its two ends. Terminals do not depend on r.
// The cost is O(|ROBDD(F)| · M²) per vector.
//
// The DP shares internal/bdd with the paper's route; ExactYield is the
// oracle with no BDD in it. A CondFail is immutable once built, so
// Vector and Yield may be called from several goroutines at once.
type CondFail struct {
	// M is the truncation point and ErrorBound the tail mass beyond it.
	M          int
	ErrorBound float64
	// ROBDDSize is the node count of F's ROBDD.
	ROBDDSize int

	p     *prepared
	nodes []dpNode // children before parents
	root  int32
	// rootSkip thins from all components to the root's level.
	rootSkip []float64
}

// dpNode is one node of F's ROBDD. A child reference is a position
// shifted left by one with the complement bit in bit 0, as in a bdd
// handle: position 0 is the False terminal, position k is nodes[k-1].
type dpNode struct {
	comp   int
	lo, hi int32
	// hit holds the rows Bin(j; r, P'_comp/q) and loSkip/hiSkip the
	// thinning rows to each child's level (nil when none is skipped),
	// each (M+1)×(M+1), row r first.
	hit, loSkip, hiSkip []float64
}

// NewCondFail prepares the model of opts (M, Q', P') and compiles F in
// the weight heuristic's input order, within Options.NodeLimit. The
// ordering options only shape the paper's coded ROBDD and are not
// used.
func NewCondFail(sys *System, opts Options) (*CondFail, error) {
	p, err := prepare(sys, opts)
	if err != nil {
		return nil, err
	}
	levels, err := order.InputRanks(sys.FaultTree, order.Weight)
	if err != nil {
		return nil, err
	}
	c := len(levels)
	bm := bdd.New(c, bdd.WithNodeLimit(p.opts.NodeLimit))
	root, err := compile.Netlist(bm, sys.FaultTree, levels)
	if err != nil {
		return nil, stageErr("compiling the ROBDD of F", err)
	}
	comp := make([]int, c)
	for ord, lv := range levels {
		comp[lv] = ord
	}
	q := make([]float64, c+1) // q[c] = 0 below the last level
	for lv := c - 1; lv >= 0; lv-- {
		q[lv] = p.pprime[comp[lv]] + q[lv+1]
	}
	n := p.m + 1
	rows := make(map[float64][]float64)
	binom := func(num, den float64) []float64 {
		a := 0.0 // no P' mass at or below the level: nothing lands there
		if den > 0 {
			a = num / den
		}
		if t, ok := rows[a]; ok {
			return t
		}
		t := make([]float64, n*n)
		t[0] = 1
		for r := 1; r < n; r++ {
			prev, row := t[(r-1)*n:r*n], t[r*n:(r+1)*n]
			row[0] = (1 - a) * prev[0]
			for j := 1; j <= r; j++ {
				row[j] = (1-a)*prev[j] + a*prev[j-1]
			}
		}
		rows[a] = t
		return t
	}
	skip := func(from int, child bdd.Node) []float64 {
		if bm.IsTerminal(child) || bm.Level(child) == from {
			return nil
		}
		return binom(q[bm.Level(child)], q[from])
	}
	cf := &CondFail{M: p.m, ErrorBound: p.tail, ROBDDSize: bm.Size(root), p: p}
	pos := make([]int32, bm.NodeBound()/2) // by arena slot; 0 = not yet
	var visit func(h bdd.Node) int32
	visit = func(h bdd.Node) int32 {
		idx := h >> 1
		if idx != 0 && pos[idx] == 0 {
			reg := h &^ 1
			lo, hi, lv := bm.Lo(reg), bm.Hi(reg), bm.Level(reg)
			nd := dpNode{comp: comp[lv], lo: visit(lo), hi: visit(hi),
				hit:    binom(p.pprime[comp[lv]], q[lv]),
				loSkip: skip(lv+1, lo), hiSkip: skip(lv+1, hi)}
			cf.nodes = append(cf.nodes, nd)
			pos[idx] = int32(len(cf.nodes))
		}
		return pos[idx]<<1 | int32(h&1)
	}
	cf.root = visit(root)
	cf.rootSkip = skip(0, root)
	return cf, nil
}

// Vector returns P(F = 1 | k lethal defects) for k = 0..M: 1 − Y_k.
// When u is non-nil, component i is also failed, independently of the
// defects, with probability u[i], so x_i = [hit] ∨ b_i with
// P(b_i) = u[i].
func (cf *CondFail) Vector(u []float64) []float64 {
	n := cf.M + 1
	vals := make([]float64, (len(cf.nodes)+1)*n) // position 0: False
	lo, hi := make([]float64, n), make([]float64, n)
	for i, nd := range cf.nodes {
		edge(lo, vals, nd.lo, nd.loSkip)
		edge(hi, vals, nd.hi, nd.hiSkip)
		ui := 0.0
		if u != nil {
			ui = u[nd.comp]
		}
		v := vals[(i+1)*n : (i+2)*n]
		for r := range v {
			b := nd.hit[r*n : r*n+r+1]
			s := b[0] * ((1-ui)*lo[r] + ui*hi[r])
			for j := 1; j <= r; j++ {
				s += b[j] * hi[r-j]
			}
			v[r] = s
		}
	}
	out := make([]float64, n)
	edge(out, vals, cf.root, cf.rootSkip)
	return out
}

// edge writes into dst the value of the child ref for r = 0..M defects,
// thinned by the rows of skip when it is non-nil.
func edge(dst, vals []float64, ref int32, skip []float64) {
	n := len(dst)
	src := vals[int(ref>>1)*n:][:n]
	for r := range dst {
		x := src[r]
		if skip != nil {
			x = 0
			for s, b := range skip[r*n : r*n+r+1] {
				x += b * src[s]
			}
		}
		if ref&1 != 0 {
			x = 1 - x
		}
		dst[r] = x
	}
}

// Yield returns Y_M = Σ_k Q'_k·Y_k with the extra failures u of Vector.
func (cf *CondFail) Yield(u []float64) float64 {
	y := 0.0
	for k, fail := range cf.Vector(u) {
		y += cf.p.qprime[k] * (1 - fail)
	}
	return y
}
