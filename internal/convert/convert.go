// Package convert turns a coded ROBDD into the ROMDD the yield method
// needs (Section 2 of the paper) and, as a validation path, evaluates
// probabilities directly on the coded ROBDD.
//
// The conversion follows the paper's procedure: the coded ROBDD is
// viewed as a stack of layers, one per multiple-valued variable, each
// containing the nodes of the binary variables encoding that variable.
// For every entry node of a layer and every value of the variable's
// domain, the value's codeword is "simulated" through the layer's bit
// levels to find the node reached below, and the corresponding ROMDD
// node is created through the unique table. The paper processes layers
// bottom-up and prunes nodes reachable only through out-of-domain
// codewords afterwards; this implementation runs the same computation
// as a memoized depth-first recursion over entry nodes, which visits
// exactly the entry nodes the bottom-up pass would keep after pruning.
package convert

import (
	"fmt"

	"socyield/internal/bdd"
	"socyield/internal/mdd"
)

// Spec describes how the coded ROBDD's binary levels map onto the
// multiple-valued variables.
type Spec struct {
	// LevelGroup[bddLevel] is the MV level (MDD variable index) whose
	// group contains that binary level. Groups must occupy contiguous,
	// increasing ranges: the slice is non-decreasing and spans
	// 0..len(Domains)-1.
	LevelGroup []int
	// LevelBit[bddLevel] is the significance of the bit at that level
	// (0 = least significant).
	LevelBit []uint
	// Domains[mvLevel] is the domain size of the multiple-valued
	// variable at that MV level.
	Domains []int
}

// Validate checks internal consistency of the spec.
func (s Spec) Validate() error {
	if len(s.LevelGroup) != len(s.LevelBit) {
		return fmt.Errorf("convert: LevelGroup has %d entries, LevelBit %d", len(s.LevelGroup), len(s.LevelBit))
	}
	if len(s.Domains) == 0 {
		return fmt.Errorf("convert: no domains")
	}
	prev := 0
	for i, g := range s.LevelGroup {
		if g < 0 || g >= len(s.Domains) {
			return fmt.Errorf("convert: level %d maps to MV level %d outside [0,%d)", i, g, len(s.Domains))
		}
		if g < prev {
			return fmt.Errorf("convert: MV levels not contiguous/increasing at binary level %d (%d after %d)", i, g, prev)
		}
		if g > prev+1 {
			return fmt.Errorf("convert: MV level %d skipped at binary level %d", prev+1, i)
		}
		if i == 0 && g != 0 {
			return fmt.Errorf("convert: first binary level maps to MV level %d, want 0", g)
		}
		prev = g
	}
	if len(s.LevelGroup) > 0 && prev != len(s.Domains)-1 {
		return fmt.Errorf("convert: last MV level covered is %d, want %d", prev, len(s.Domains)-1)
	}
	for g, d := range s.Domains {
		if d < 2 {
			return fmt.Errorf("convert: domain of MV level %d is %d, need ≥ 2", g, d)
		}
		bits := 0
		for lv, lg := range s.LevelGroup {
			if lg == g {
				if s.LevelBit[lv] > 63 {
					return fmt.Errorf("convert: bit significance %d at level %d too large", s.LevelBit[lv], lv)
				}
				bits++
			}
		}
		if d > 1<<bits {
			return fmt.Errorf("convert: MV level %d has domain %d but only %d bits", g, d, bits)
		}
	}
	return nil
}

// simulate walks from n through the binary levels of MV group g,
// following the bits of value, and returns the first node outside the
// layer (an entry node of a lower layer or a terminal) — the paper's
// n_{s_i}. When steps is non-nil it accumulates the number of binary
// nodes traversed.
func simulate(bm *bdd.Manager, s *Spec, n bdd.Node, g int, value int, steps *int64) bdd.Node {
	for !bm.IsTerminal(n) && s.LevelGroup[bm.Level(n)] == g {
		if steps != nil {
			*steps++
		}
		if value&(1<<s.LevelBit[bm.Level(n)]) != 0 {
			n = bm.Hi(n)
		} else {
			n = bm.Lo(n)
		}
	}
	return n
}

// Stats instruments one coded-ROBDD → ROMDD conversion: how much work
// each layer (multiple-valued variable) of the coded ROBDD required.
type Stats struct {
	// EntryNodes[mvLevel] is the number of distinct layer-entry nodes
	// converted at that MV level — the paper's per-layer node front.
	EntryNodes []int64
	// SimSteps is the total number of binary-node steps taken by the
	// codeword simulations across all layers.
	SimSteps int64
}

// ToMDD converts the coded ROBDD rooted at root in bm into an ROMDD in
// mm, which must have been created with domains equal to spec.Domains.
// It returns the ROMDD root.
func ToMDD(bm *bdd.Manager, root bdd.Node, mm *mdd.Manager, spec Spec) (mdd.Node, error) {
	return ToMDDWithStats(bm, root, mm, spec, nil)
}

// ToMDDWithStats is ToMDD recording per-layer conversion statistics
// into st when st is non-nil. The conversion itself is identical.
func ToMDDWithStats(bm *bdd.Manager, root bdd.Node, mm *mdd.Manager, spec Spec, st *Stats, opts ...Option) (mdd.Node, error) {
	cfg := applyOptions(opts)
	if err := spec.Validate(); err != nil {
		return mdd.False, err
	}
	if len(spec.LevelGroup) != bm.NumVars() {
		return mdd.False, fmt.Errorf("convert: spec covers %d binary levels, manager has %d", len(spec.LevelGroup), bm.NumVars())
	}
	if mm.NumVars() != len(spec.Domains) {
		return mdd.False, fmt.Errorf("convert: MDD manager has %d variables, spec %d", mm.NumVars(), len(spec.Domains))
	}
	for g, d := range spec.Domains {
		if mm.Domain(g) != d {
			return mdd.False, fmt.Errorf("convert: MDD domain %d is %d, spec wants %d", g, mm.Domain(g), d)
		}
	}
	var steps *int64
	if st != nil {
		st.EntryNodes = make([]int64, len(spec.Domains))
		steps = &st.SimSteps
	}
	// Map-free memoization: the coded ROBDD is read-only during the
	// conversion, so handle values are bounded by NodeBound at entry and
	// a flat slice indexed by handle replaces the hash map. The key is
	// the full handle (complement bit included): a node and its
	// complement denote different functions and convert independently.
	// memo holds the ROMDD node plus one, so zero means not yet seen.
	memo := make([]mdd.Node, bm.NodeBound())
	// One child buffer per MV level serves every entry node of that
	// level: a conversion only recurses into deeper levels, so a
	// level's buffer is free again by the time the next of its entry
	// nodes starts, and MkNode copies the children it keeps.
	bufs := make([][]mdd.Node, len(spec.Domains))
	for g, d := range spec.Domains {
		bufs[g] = make([]mdd.Node, d)
	}
	var err error
	var conv func(n bdd.Node) mdd.Node
	conv = func(n bdd.Node) mdd.Node {
		if err != nil {
			return mdd.False
		}
		if n == bdd.False {
			return mdd.False
		}
		if n == bdd.True {
			return mdd.True
		}
		if r := memo[n]; r != 0 {
			return r - 1
		}
		g := spec.LevelGroup[bm.Level(n)]
		if st != nil {
			st.EntryNodes[g]++
		}
		// Entry nodes are discovered as they convert, so the total is
		// unknown; progress still counts nodes done.
		cfg.state.Add(1)
		kids := bufs[g]
		for val := range kids {
			kids[val] = conv(simulate(bm, &spec, n, g, val, steps))
			if err != nil {
				return mdd.False
			}
		}
		r, mkErr := mm.MkNode(g, kids)
		if mkErr != nil {
			err = mkErr
			return mdd.False
		}
		memo[n] = r + 1
		return r
	}
	out := conv(root)
	if err != nil {
		return mdd.False, err
	}
	return out, nil
}

// Prob evaluates P(f = 1) directly on the coded ROBDD, walking bit
// groups with the same simulation as ToMDD: probs[mvLevel][value] is
// the probability of each multiple-valued value. This must agree
// exactly with converting to an ROMDD and calling mdd.Prob — the
// validation triangle used by the tests — and also serves as a
// baseline showing the ROMDD is not required for the probability
// computation itself, only more efficient when reused.
func Prob(bm *bdd.Manager, root bdd.Node, spec Spec, probs [][]float64) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if len(spec.LevelGroup) != bm.NumVars() {
		return 0, fmt.Errorf("convert: spec covers %d binary levels, manager has %d", len(spec.LevelGroup), bm.NumVars())
	}
	if len(probs) != len(spec.Domains) {
		return 0, fmt.Errorf("convert: probability table has %d rows, want %d", len(probs), len(spec.Domains))
	}
	for g, row := range probs {
		if len(row) != spec.Domains[g] {
			return 0, fmt.Errorf("convert: probability row %d has %d entries, want %d", g, len(row), spec.Domains[g])
		}
	}
	// Handle-indexed memo, same pattern as ToMDDWithStats.
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
		g := spec.LevelGroup[bm.Level(n)]
		total := 0.0
		for val, p := range probs[g] {
			if p == 0 {
				continue
			}
			total += p * walk(simulate(bm, &spec, n, g, val, nil))
		}
		memo[n] = total
		seen[n] = true
		return total
	}
	return walk(root), nil
}

// SpecFromPlanLevels builds a Spec from the per-ordinal level map and
// group membership produced by package order/encode: groupOf[ordinal]
// is the natural group index of each binary input, bitOf[ordinal] its
// significance, levels[ordinal] its BDD level, groupSeq the MV-level
// order of natural group indices, and domains the domain sizes in
// natural group order.
func SpecFromPlanLevels(levels []int, groupOf []int, bitOf []uint, groupSeq []int, domains []int) (Spec, error) {
	if len(levels) != len(groupOf) || len(levels) != len(bitOf) {
		return Spec{}, fmt.Errorf("convert: inconsistent metadata lengths %d/%d/%d", len(levels), len(groupOf), len(bitOf))
	}
	mvLevelOf := make([]int, len(groupSeq)) // natural group index -> MV level
	for i := range mvLevelOf {
		mvLevelOf[i] = -1
	}
	for mvLevel, gi := range groupSeq {
		if gi < 0 || gi >= len(groupSeq) {
			return Spec{}, fmt.Errorf("convert: group sequence entry %d out of range", gi)
		}
		if mvLevelOf[gi] != -1 {
			return Spec{}, fmt.Errorf("convert: group %d appears twice in sequence", gi)
		}
		mvLevelOf[gi] = mvLevel
	}
	s := Spec{
		LevelGroup: make([]int, len(levels)),
		LevelBit:   make([]uint, len(levels)),
		Domains:    make([]int, len(domains)),
	}
	for mvLevel, gi := range groupSeq {
		s.Domains[mvLevel] = domains[gi]
	}
	for ord, lv := range levels {
		if lv < 0 || lv >= len(levels) {
			return Spec{}, fmt.Errorf("convert: ordinal %d assigned level %d outside [0,%d)", ord, lv, len(levels))
		}
		if groupOf[ord] < 0 || groupOf[ord] >= len(mvLevelOf) || mvLevelOf[groupOf[ord]] == -1 {
			return Spec{}, fmt.Errorf("convert: ordinal %d in unknown group %d", ord, groupOf[ord])
		}
		s.LevelGroup[lv] = mvLevelOf[groupOf[ord]]
		s.LevelBit[lv] = bitOf[ord]
	}
	return s, s.Validate()
}
