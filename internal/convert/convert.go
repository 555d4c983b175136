// Package convert turns a coded ROBDD into the ROMDD the yield method
// needs (Section 2 of the paper).
//
// The conversion follows the paper's procedure: the coded ROBDD is
// viewed as a stack of layers, one per multiple-valued variable, each
// containing the nodes of the binary variables encoding that variable.
// For every entry node of a layer, the node reached below the layer by
// each value's codeword is found, and the corresponding ROMDD node is
// created through the unique table. The paper simulates the codewords
// one value at a time; here one codeword walk per entry node branches
// through the layer's bit levels once and finds the nodes of all
// values together. The paper processes layers bottom-up and prunes
// nodes reachable only through out-of-domain codewords afterwards;
// this implementation runs the same computation as a memoized
// depth-first recursion over entry nodes, which visits exactly the
// entry nodes the bottom-up pass would keep after pruning.
package convert

import (
	"fmt"
	"math/bits"

	"socyield/internal/bdd"
	"socyield/internal/mdd"
	"socyield/internal/obs"
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

// Stats instruments one coded-ROBDD → ROMDD conversion: how much work
// each layer (multiple-valued variable) of the coded ROBDD required.
type Stats struct {
	// EntryNodes[mvLevel] is the number of distinct layer-entry nodes
	// converted at that MV level — the paper's per-layer node front.
	EntryNodes []int64
	// SimSteps is the number of binary nodes the codeword walks visit:
	// each entry node's walk through its layer counts every node it
	// branches at, once per value prefix that reaches it.
	SimSteps int64
}

// ToMDD converts the coded ROBDD rooted at root in bm into an ROMDD in
// mm, which must have been created with domains equal to spec.Domains.
// It returns the ROMDD root.
func ToMDD(bm *bdd.Manager, root bdd.Node, mm *mdd.Manager, spec Spec) (mdd.Node, error) {
	return ToMDDWithStats(bm, root, mm, spec, nil)
}

// ToMDDWithStats is ToMDD recording per-layer conversion statistics
// into st when st is non-nil; st is reset first. The conversion itself
// is identical.
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
	if st != nil {
		*st = Stats{EntryNodes: make([]int64, len(spec.Domains))}
	}
	c := newConverter(bm, &spec, st, cfg.state)
	entries, kids := c.size(root)
	// The sizing walk bounds the conversion from above: an entry node
	// reached only through out-of-domain codewords is counted but never
	// converted. One reservation therefore holds the whole ROMDD but its
	// distinct children, which grow as the nodes are made.
	cfg.state.SetTotal(entries)
	if cfg.beforeReserve != nil {
		cfg.beforeReserve(mm.ReserveBytes(int(entries), int(kids)))
	}
	mm.Reserve(int(entries), int(kids))
	var out mdd.Node
	err := mm.Build(func(mk func(int, []mdd.Node) mdd.Node) {
		c.mk = mk
		out = c.conv(root)
	})
	if err != nil {
		return mdd.False, err
	}
	// Trim the total to the entry nodes actually converted, so a
	// finished conversion reports done == total.
	cfg.state.SetTotal(c.done)
	return out, nil
}

// converter holds the state of one conversion.
type converter struct {
	bm   *bdd.Manager
	spec *Spec
	st   *Stats
	bs   *obs.BuildState
	mk   func(int, []mdd.Node) mdd.Node
	// MV level g's layer is the binary levels start[g]..end[g]-1.
	start, end []int
	// rest[lv] has the bit of every level from lv to the end of lv's
	// layer set: the bits a codeword walk at lv has not decided yet.
	rest []int
	// Map-free memoization over entry handles only: the coded ROBDD is
	// read-only during the conversion, so the sizing walk's entry
	// bitset (one bit per handle below NodeBound, set for the root and
	// every child whose MV level differs from its parent's) names every
	// handle conv can be called on. rank[w] counts the entry bits in
	// words 0..w-1, so an entry handle's rank among all entry handles
	// indexes memo, which has one slot per entry handle. The key is the
	// full handle (complement bit included): a node and its complement
	// denote different functions and convert independently. memo holds
	// the ROMDD node plus one, so zero means not yet seen.
	entry []uint64
	rank  []int32
	memo  []mdd.Node
	// One target and one child buffer per MV level serve every entry
	// node of that level: a conversion only recurses into deeper
	// levels, so a level's buffers are free again by the time the next
	// of its entry nodes starts, and mk copies the children it keeps.
	targets [][]bdd.Node
	kids    [][]mdd.Node
	done    int64
}

func newConverter(bm *bdd.Manager, spec *Spec, st *Stats, bs *obs.BuildState) *converter {
	c := &converter{
		bm:      bm,
		spec:    spec,
		st:      st,
		bs:      bs,
		start:   make([]int, len(spec.Domains)),
		end:     make([]int, len(spec.Domains)),
		targets: make([][]bdd.Node, len(spec.Domains)),
		kids:    make([][]mdd.Node, len(spec.Domains)),
	}
	c.rest = make([]int, len(spec.LevelGroup))
	for lv := len(spec.LevelGroup) - 1; lv >= 0; lv-- {
		g := spec.LevelGroup[lv]
		c.rest[lv] = 1 << spec.LevelBit[lv]
		if c.end[g] == 0 {
			c.end[g] = lv + 1
		} else {
			c.rest[lv] |= c.rest[lv+1]
		}
		c.start[g] = lv
	}
	for g, d := range spec.Domains {
		c.targets[g] = make([]bdd.Node, d)
		c.kids[g] = make([]mdd.Node, d)
	}
	return c
}

// group returns the MV level of a non-terminal handle.
func (c *converter) group(n bdd.Node) int { return c.spec.LevelGroup[c.bm.Level(n)] }

// size walks the coded ROBDD below root once, marks the entry handles
// — the root and every child whose MV level differs from its parent's
// — in c.entry, and returns their number and the sum of their domain
// sizes: bounds on the ROMDD's node and slot-map entry counts. It then ranks
// the entry bits and sizes the memo to one slot per entry handle.
func (c *converter) size(root bdd.Node) (entries, kids int64) {
	if c.bm.IsTerminal(root) {
		return 0, 0
	}
	words := (c.bm.NodeBound() + 63) / 64
	seen, entry := make([]uint64, words), make([]uint64, words)
	var walk func(n bdd.Node)
	walk = func(n bdd.Node) {
		seen[n/64] |= 1 << (n % 64)
		g := c.group(n)
		for _, k := range [2]bdd.Node{c.bm.Lo(n), c.bm.Hi(n)} {
			if c.bm.IsTerminal(k) {
				continue
			}
			if kg := c.group(k); kg != g && entry[k/64]&(1<<(k%64)) == 0 {
				entry[k/64] |= 1 << (k % 64)
				entries++
				kids += int64(c.spec.Domains[kg])
			}
			if seen[k/64]&(1<<(k%64)) == 0 {
				walk(k)
			}
		}
	}
	walk(root)
	// Nothing below the root reaches it, so its bit is still clear.
	entry[root/64] |= 1 << (root % 64)
	entries++
	c.entry, c.rank = entry, make([]int32, words)
	var r int32
	for w, word := range entry {
		c.rank[w] = r
		r += int32(bits.OnesCount64(word))
	}
	c.memo = make([]mdd.Node, entries)
	return entries, kids + int64(c.spec.Domains[c.group(root)])
}

// slot returns the memo index of entry handle n: its rank among the
// entry handles.
func (c *converter) slot(n bdd.Node) int {
	w := n / 64
	return int(c.rank[w]) + bits.OnesCount64(c.entry[w]&(1<<(n%64)-1))
}

// conv converts the coded ROBDD below entry handle n, memoized per
// handle.
func (c *converter) conv(n bdd.Node) mdd.Node {
	if n == bdd.False {
		return mdd.False
	}
	if n == bdd.True {
		return mdd.True
	}
	slot := c.slot(n)
	if r := c.memo[slot]; r != 0 {
		return r - 1
	}
	g := c.group(n)
	if c.st != nil {
		c.st.EntryNodes[g]++
	}
	c.done++
	c.bs.Add(1)
	tg, kids := c.targets[g], c.kids[g]
	c.walk(n, c.start[g], 0, len(tg), c.end[g], tg)
	// Converting the targets in value order creates the ROMDD nodes in
	// the post-order Freeze numbers them in, so Freeze can adopt the
	// arena as is. Runs of equal targets convert once.
	prev, r := bdd.Node(-1), mdd.False
	for v, t := range tg {
		if t != prev {
			prev, r = t, c.conv(t)
		}
		kids[v] = r
	}
	r = c.mk(g, kids)
	c.memo[slot] = r + 1
	return r
}

// walk is the codeword walk of one entry node: it follows every value
// prefix through the binary levels lv..end-1 of a layer in BDD order,
// val holding the bits decided so far, and records in tg[v] the node
// each value v < d reaches below the layer — the paper's n_{s_i}. A
// level n tests branches to its lo (bit 0) and hi (bit 1) child; a
// level n skips branches both bit values on n itself. A prefix with
// val ≥ d is pruned: the undecided bits are 0 in its smallest
// completion, so every value it leads to is out of the domain.
func (c *converter) walk(n bdd.Node, lv int, val, d, end int, tg []bdd.Node) {
	for ; lv < end; lv++ {
		if val >= d {
			return
		}
		// A terminal's level is NumVars, below every layer.
		nl := c.bm.Level(n)
		if nl >= end {
			break
		}
		bit := 1 << c.spec.LevelBit[lv]
		if nl == lv {
			if c.st != nil {
				c.st.SimSteps++
			}
			c.walk(c.bm.Hi(n), lv+1, val|bit, d, end, tg)
			n = c.bm.Lo(n)
		} else {
			c.walk(n, lv+1, val|bit, d, end, tg)
		}
	}
	// n lies below the layer, so every completion of val over the
	// undecided bits reaches it. They are enumerated in increasing
	// order, which ends at the first one outside the domain.
	rest := 0
	if lv < end {
		rest = c.rest[lv]
	}
	for sub := 0; val|sub < d; sub = (sub - rest) & rest {
		tg[val|sub] = n
		if sub == rest {
			break
		}
	}
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
