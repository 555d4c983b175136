// Package encode synthesizes the generalized function G(w, v_1..v_M)
// of Theorem 1 as a gate-level netlist over binary variables, following
// Section 2 of the paper: the multiple-valued variable w (number of
// lethal defects, saturated at M+1) is encoded with a minimum number of
// bits, each v_l (component hit by the l-th lethal defect) encodes
// v_l − 1 with a minimum number of bits, and the "filter" gates of
// Figure 1 are expanded into the binary literal products given in the
// paper:
//
//	z_{≥M+1} = lit(w^{l-1}, M+1) · … · lit(w^0, M+1)
//	z_{≥k}   = z_{≥k+1} + lit(w^{l-1}, k) · … · lit(w^0, k)
//	z^k_l    = lit(v_l^{j-1}, k-1) · … · lit(v_l^0, k-1)
//
// and every input x_i of the fault tree F is replaced by
// ⋁_{l=1..M} ( z_{≥l} ∧ z^i_l ), with G = z_{≥M+1} ∨ F(…).
package encode

import (
	"fmt"

	"socyield/internal/logic"
	"socyield/internal/order"
)

// GFunc is the synthesized generalized function together with the
// metadata linking its binary inputs back to the multiple-valued
// variables.
type GFunc struct {
	// Netlist is G in binary logic; its inputs are the bits of w and
	// of v_1..v_M.
	Netlist *logic.Netlist
	// Groups lists the bit groups in natural order: Groups[0] is w,
	// Groups[l] is v_l. Bits are input ordinals, most significant
	// first.
	Groups []order.Group
	// C is the number of components; M the truncation point.
	C, M int
	// WBits and VBits are the code widths of w and of each v_l.
	WBits, VBits int
}

// Domains returns the domain sizes of the multiple-valued variables in
// natural group order: w has M+2 values (0..M and the saturation value
// M+1), each v_l has C values (value i-1 encodes component i).
func (g *GFunc) Domains() []int {
	out := make([]int, 1+g.M)
	out[0] = g.M + 2
	for l := 1; l <= g.M; l++ {
		out[l] = g.C
	}
	return out
}

func bitsFor(maxValue int) int {
	b := 1
	for (1 << b) <= maxValue {
		b++
	}
	return b
}

// BuildG synthesizes G from the fault tree f, whose declared inputs
// are, in declaration order, the failed-state variables x_1 … x_C of
// the C components. M ≥ 0 is the truncation point.
func BuildG(f *logic.Netlist, m int) (*GFunc, error) {
	c := f.NumInputs()
	if c < 2 {
		return nil, fmt.Errorf("encode: %d components, need at least 2", c)
	}
	if m < 0 {
		return nil, fmt.Errorf("encode: negative truncation point %d", m)
	}
	if _, ok := f.Output(); !ok {
		return nil, logic.ErrNoOutput
	}
	wBits := bitsFor(m + 1)
	vBits := bitsFor(c - 1)
	g := &GFunc{
		Netlist: logic.New(),
		C:       c,
		M:       m,
		WBits:   wBits,
		VBits:   vBits,
	}
	n := g.Netlist

	// Declare inputs group by group, most significant bit first, and
	// record the groups.
	wGroup := order.Group{Name: "w", Bits: make([]int, 0, wBits)}
	wBitGates := make([]logic.GateID, wBits) // indexed by significance, 0 = LSB
	for b := wBits - 1; b >= 0; b-- {
		id := n.Input(fmt.Sprintf("w.%d", b))
		wGroup.Bits = append(wGroup.Bits, n.InputOrdinal(id))
		wBitGates[b] = id
	}
	g.Groups = append(g.Groups, wGroup)
	vBitGates := make([][]logic.GateID, m+1) // 1-based defect index
	for l := 1; l <= m; l++ {
		grp := order.Group{Name: fmt.Sprintf("v%d", l), Bits: make([]int, 0, vBits)}
		vBitGates[l] = make([]logic.GateID, vBits)
		for b := vBits - 1; b >= 0; b-- {
			id := n.Input(fmt.Sprintf("v%d.%d", l, b))
			grp.Bits = append(grp.Bits, n.InputOrdinal(id))
			vBitGates[l][b] = id
		}
		g.Groups = append(g.Groups, grp)
	}

	// minterm returns the product of literals selecting value on the
	// given bit gates (indexed by significance). The product is the
	// paper's lit(w^{l-1})·…·lit(w^0), built as a right-deep chain
	// with the least significant literal outermost: under the weight
	// heuristic each 2-input AND then ranks its literal before the
	// heavier sub-chain, so the discovery order of a group's bits is
	// exactly least-to-most significant — which is what makes the
	// paper's "w" bit ordering coincide with "lm" on every benchmark.
	minterm := func(bitGates []logic.GateID, value int) logic.GateID {
		lit := func(b int) logic.GateID {
			if value&(1<<b) != 0 {
				return bitGates[b]
			}
			return n.Not(bitGates[b])
		}
		msb := len(bitGates) - 1
		acc := lit(msb)
		for b := msb - 1; b >= 0; b-- {
			acc = n.And(lit(b), acc)
		}
		return acc
	}

	// z_{≥k} chain, built top (M+1) down as in the paper.
	zGeq := make([]logic.GateID, m+2) // zGeq[k] = [w ≥ k], k = 1..M+1
	zGeq[m+1] = minterm(wBitGates, m+1)
	for k := m; k >= 1; k-- {
		zGeq[k] = n.Or(zGeq[k+1], minterm(wBitGates, k))
	}

	// Substituted fault-tree inputs: x_i := ⋁_l z_{≥l} ∧ z^i_l. The
	// disjunction is a single M-input OR: the weight heuristic then
	// re-sorts its fan-in by ascending weight (z_{≥M} is the lightest),
	// discovering v_M first, while H4 keeps the written order on its
	// tie and discovers v_1 first — reproducing both the paper's
	// "w = wvr" and "h = wv" ROMDD-size identities simultaneously.
	xSub := make([]logic.GateID, c) // by component ordinal (0-based)
	for i := 0; i < c; i++ {
		terms := make([]logic.GateID, 0, m)
		for l := 1; l <= m; l++ {
			terms = append(terms, n.And(zGeq[l], minterm(vBitGates[l], i)))
		}
		if len(terms) == 0 { // M = 0: no defect can hit anything
			xSub[i] = n.Const(false)
		} else {
			xSub[i] = n.Or(terms...)
		}
	}

	// Copy F's gate DAG with inputs replaced by xSub.
	fOut := f.MustOutput()
	mapTo := make(map[logic.GateID]logic.GateID, f.NumNodes())
	var rc func(id logic.GateID) logic.GateID
	rc = func(id logic.GateID) logic.GateID {
		if to, ok := mapTo[id]; ok {
			return to
		}
		gate := f.Gate(id)
		var to logic.GateID
		switch gate.Kind {
		case logic.InputKind:
			to = xSub[f.InputOrdinal(id)]
		case logic.ConstKind:
			to = n.Const(gate.Value)
		default:
			fanin := make([]logic.GateID, len(gate.Fanin))
			for j, fid := range gate.Fanin {
				fanin[j] = rc(fid)
			}
			switch gate.Kind {
			case logic.NotKind:
				to = n.Not(fanin[0])
			case logic.AndKind:
				to = n.And(fanin...)
			case logic.OrKind:
				to = n.Or(fanin...)
			case logic.NandKind:
				to = n.Nand(fanin...)
			case logic.NorKind:
				to = n.Nor(fanin...)
			case logic.XorKind:
				to = n.Xor(fanin...)
			case logic.XnorKind:
				to = n.Xnor(fanin...)
			default:
				panic(fmt.Sprintf("encode: unknown gate kind %v", gate.Kind))
			}
		}
		mapTo[id] = to
		return to
	}
	fPrime := rc(fOut)
	n.SetOutput(n.Or(zGeq[m+1], fPrime))
	return g, nil
}

// DecodeAssignment maps multiple-valued values (w, v_1..v_M in natural
// order; each v given as the 0-based component index) to a binary
// assignment vector for the G netlist, for testing and simulation.
func (g *GFunc) DecodeAssignment(mv []int) ([]bool, error) {
	if len(mv) != 1+g.M {
		return nil, fmt.Errorf("encode: assignment has %d values, want %d", len(mv), 1+g.M)
	}
	out := make([]bool, g.Netlist.NumInputs())
	set := func(grp order.Group, value int) {
		nb := len(grp.Bits)
		for j, ord := range grp.Bits { // MSB first
			bit := nb - 1 - j
			out[ord] = value&(1<<bit) != 0
		}
	}
	if mv[0] < 0 || mv[0] > g.M+1 {
		return nil, fmt.Errorf("encode: w value %d outside [0,%d]", mv[0], g.M+1)
	}
	set(g.Groups[0], mv[0])
	for l := 1; l <= g.M; l++ {
		if mv[l] < 0 || mv[l] >= g.C {
			return nil, fmt.Errorf("encode: v%d value %d outside [0,%d)", l, mv[l], g.C)
		}
		set(g.Groups[l], mv[l])
	}
	return out, nil
}
