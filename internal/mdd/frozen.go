package mdd

import (
	"fmt"
	"slices"
)

// Frozen is an immutable compact snapshot of one rooted diagram,
// produced by Manager.Freeze. It holds only the nodes reachable from
// the root, numbered in topological (children before parents) order.
// Nothing in it is ever written after Freeze returns, so it is safe to
// evaluate from any number of goroutines with no external
// synchronization, even while the original manager keeps growing.
//
// Beyond safety, the compaction pays for itself: a probability pass
// (Split, Prob, Grad) walks a dense array (no recursion, no hash
// lookups, good locality), which is the hot loop of every what-if
// evaluation.
type Frozen struct {
	// arena holds the nodes in the manager's layout: terminals keep
	// indices 0 (False) and 1 (True) with level == len(domains).
	arena
	// root is the compact index of the frozen root. Children precede
	// parents, so the root is always the last node (or a terminal).
	root int32
}

// Freeze extracts the diagram rooted at n into an immutable snapshot.
// The manager is only read; it may be discarded or mutated afterwards
// without affecting the snapshot.
//
// When the manager already holds exactly the nodes reachable from n,
// numbered in the post-order the snapshot uses — the layout the
// coded-ROBDD converter produces — Freeze adopts the manager's arrays
// instead of copying them. This is safe because the manager never
// rewrites an entry, only appends new ones past the snapshot's end.
// Otherwise (a manager built by direct MDD operations, or one holding
// nodes the root does not reach) Freeze copies the reachable nodes by
// a post-order DFS. Both paths give the same FrozenData.
func (m *Manager) Freeze(n Node) *Frozen {
	domains := append([]int32(nil), m.domains...)
	if !m.IsTerminal(n) && m.inFreezeOrder(n) {
		// The page table is copied: the manager rewrites the header of
		// its last page as it fills it.
		a := m.arena
		a.domains, a.kids = domains, slices.Clone(m.kids)
		return &Frozen{arena: a, root: int32(n)}
	}
	f := &Frozen{arena: newArena(domains), root: int32(n)}
	if m.IsTerminal(n) {
		return f
	}
	// Post-order DFS assigns compact indices so that children precede
	// parents; remap[] carries old → new indices. Walking the distinct
	// children visits them in the order a walk over every value would,
	// and the remapped list keeps them distinct and in that order, so
	// the slot map carries over as is.
	remap := make([]int32, len(m.levels))
	for i := range remap {
		remap[i] = nilIdx
	}
	remap[False], remap[True] = 0, 1
	var dk []int32
	var walk func(x int32) int32
	walk = func(x int32) int32 {
		if remap[x] != nilIdx {
			return remap[x]
		}
		for _, k := range m.distinct(int(x)) {
			walk(k)
		}
		idx := int32(len(f.levels))
		f.levels = append(f.levels, m.levels[x])
		dk = dk[:0]
		for _, k := range m.distinct(int(x)) {
			dk = append(dk, remap[k])
		}
		f.appendDistinct(dk, f.nextKidPage())
		f.slotOff = append(f.slotOff, int32(f.numValues()))
		off, d := m.slotOff[x], m.domains[m.levels[x]]
		if m.wide {
			f.slots16 = append(f.slots16, m.slots16[off:off+d]...)
		} else {
			f.slots8 = append(f.slots8, m.slots8[off:off+d]...)
		}
		remap[x] = idx
		return idx
	}
	f.root = walk(int32(n))
	return f
}

// inFreezeOrder reports whether the manager's internal nodes are
// exactly those reachable from root, numbered in the post-order
// Freeze's DFS assigns, so that the DFS would map every node to
// itself. It replays that DFS, taking a node as visited iff its index
// is below the next index to assign — true for as long as the two
// numberings have agreed — and stops at the first node that would be
// renumbered.
func (m *Manager) inFreezeOrder(root Node) bool {
	next := int32(2)
	var walk func(int32) bool
	walk = func(x int32) bool {
		if x < next {
			return true
		}
		for _, k := range m.distinct(int(x)) {
			if !walk(k) {
				return false
			}
		}
		if x != next {
			return false
		}
		next++
		return true
	}
	return walk(int32(root)) && int(next) == len(m.levels)
}

// FrozenData is the serialized form of a Frozen snapshot, one child per
// value. Levels covers every node including the two terminal slots
// (indices 0 and 1, whose level is len(Domains)); Kids concatenates the
// child arrays of the internal nodes in node order, one entry per value
// of the node's level. The per-node child offsets are deliberately
// absent: they are a prefix sum of the domain sizes along Levels, so
// FrozenFromData recomputes them, removing a whole class of
// inconsistent input.
type FrozenData struct {
	Domains []int32
	Levels  []int32
	Kids    []int32
	Root    int32
}

// Data returns the snapshot in its serialized form. Domains and Levels
// alias the snapshot's arrays and must not be modified; Kids is a new
// array, expanded node by node from the distinct children and slot
// maps.
func (f *Frozen) Data() FrozenData {
	d := f.Shape()
	if n := f.numValues(); n > 0 {
		d.Kids = make([]int32, 0, n)
	}
	for i := 2; i < len(f.levels); i++ {
		d.Kids = f.appendKids(d.Kids, i)
	}
	return d
}

// Shape returns Data without Kids, so that an encoder can expand the
// children node by node (AppendKids) instead of all at once.
func (f *Frozen) Shape() FrozenData {
	return FrozenData{Domains: f.domains, Levels: f.levels, Root: f.root}
}

// AppendKids appends the children of internal node i (2 ≤ i <
// NumNodes), one per value of its level, to dst: node i's slice of
// FrozenData.Kids.
func (f *Frozen) AppendKids(dst []int32, i int) []int32 { return f.appendKids(dst, i) }

// Bytes returns the bytes the snapshot's arrays hold: what a cached
// model costs. An adopted arena counts the capacity it was reserved
// with.
func (f *Frozen) Bytes() int { return f.bytes() }

// FrozenFromData reconstructs a Frozen snapshot from its serialized
// form, compacting each node's children into distinct children and a
// slot map and validating every structural invariant evaluation relies
// on, so that a snapshot built from arbitrary (even hostile) input can
// never make Prob, Eval, Size or ComputeStats read out of bounds or
// loop:
//
//   - every domain has ≥ 2 values (the Manager's own constraint) and
//     at most MaxDomain;
//   - nodes 0 and 1 are the terminals (level == len(Domains));
//   - every internal node's level is a valid variable level;
//   - the concatenated child arrays cover Kids exactly;
//   - children strictly precede their parent (kid index < node index),
//     which both guarantees Eval terminates and gives the probability
//     passes their node order;
//   - internal children sit at strictly deeper levels than their
//     parent (the ordered-diagram property Manager.MkNode enforces);
//   - every slot names one of its node's distinct children;
//   - the root is a valid node index.
//
// Compaction costs O(1) per value. Domains and Levels are kept; the
// caller must not modify them afterwards.
func FrozenFromData(d FrozenData) (*Frozen, error) {
	const maxLen = 1<<31 - 1
	if len(d.Domains) > maxLen || len(d.Levels) > maxLen || len(d.Kids) > maxLen {
		return nil, fmt.Errorf("mdd: frozen data: arrays exceed int32 indexing")
	}
	nvars := int32(len(d.Domains))
	for l, dom := range d.Domains {
		if dom < 2 {
			return nil, fmt.Errorf("mdd: frozen data: domain of level %d has size %d, need ≥ 2", l, dom)
		}
		if dom > MaxDomain {
			return nil, fmt.Errorf("mdd: frozen data: domain of level %d has size %d, over the limit %d", l, dom, MaxDomain)
		}
	}
	if len(d.Levels) < 2 {
		return nil, fmt.Errorf("mdd: frozen data: %d nodes, need the 2 terminals", len(d.Levels))
	}
	if d.Levels[0] != nvars || d.Levels[1] != nvars {
		return nil, fmt.Errorf("mdd: frozen data: terminal levels (%d, %d) != %d", d.Levels[0], d.Levels[1], nvars)
	}
	off := int64(0)
	for i := 2; i < len(d.Levels); i++ {
		lv := d.Levels[i]
		if lv < 0 || lv >= nvars {
			return nil, fmt.Errorf("mdd: frozen data: node %d at level %d outside [0,%d)", i, lv, nvars)
		}
		off += int64(d.Domains[lv])
		if off > int64(len(d.Kids)) {
			return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries or more, Kids has %d", off, len(d.Kids))
		}
	}
	if off != int64(len(d.Kids)) {
		return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries, Kids has %d", off, len(d.Kids))
	}
	if d.Root < 0 || int(d.Root) >= len(d.Levels) {
		return nil, fmt.Errorf("mdd: frozen data: root %d outside [0,%d)", d.Root, len(d.Levels))
	}
	f := &Frozen{arena: newArena(d.Domains), root: d.Root}
	f.levels = d.Levels
	f.kidEnd = make([]int32, len(d.Levels))
	f.slotOff = make([]int32, len(d.Levels))
	var err error
	if f.wide {
		f.slots16 = make([]uint16, len(d.Kids))
		err = compactData(&f.arena, d.Kids, f.slots16)
	} else {
		f.slots8 = make([]uint8, len(d.Kids))
		err = compactData(&f.arena, d.Kids, f.slots8)
	}
	if err != nil {
		return nil, err
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	return f, nil
}

// compactData fills a's child lists, child ends, slot offsets and the
// slot maps sl (one entry per value) from the serialized children,
// whose coverage FrozenFromData has checked, in one pass. The lists go
// to one array first; once their number is known they are laid out in
// pages, which takes one page of that size when they fit in one.
func compactData[S slot](a *arena, kids []int32, sl []S) error {
	pos := make([]int32, len(a.levels))
	var all, dk []int32
	off := 0
	for i := 2; i < len(a.levels); i++ {
		node := kids[off : off+int(a.domains[a.levels[i]])]
		a.slotOff[i] = int32(off)
		var ok bool
		if dk, ok = compactKids(node, i, pos, dk[:0], sl[off:off+len(node)]); !ok {
			k := node[slices.IndexFunc(node, func(k int32) bool { return k < 0 || int(k) >= i })]
			return fmt.Errorf("mdd: frozen data: node %d has child %d outside [0,%d)", i, k, i)
		}
		all = append(all, dk...)
		a.kidEnd[i] = int32(len(all))
		off += len(node)
	}
	if len(all) <= kidPageSize {
		a.kids = [][]int32{slices.Clip(slices.Clone(all))}
		return nil
	}
	ends := slices.Clone(a.kidEnd)
	a.kidEnd = a.kidEnd[:2]
	for i := 2; i < len(a.levels); i++ {
		a.appendDistinct(all[ends[i-1]:ends[i]], len(all)-int(ends[i-1]))
	}
	return nil
}

// NumVars returns the number of variable levels.
func (f *Frozen) NumVars() int { return len(f.domains) }

// Domain returns the domain size of the variable at the given level.
func (f *Frozen) Domain(level int) int { return int(f.domains[level]) }

// NumNodes returns the node count of the snapshot including both
// terminals (the conventional diagram size counts only reached
// terminals — see Size).
func (f *Frozen) NumNodes() int { return len(f.levels) }

// Size returns the number of nodes in the frozen diagram, counting
// terminals only when the root actually reaches them — the same
// convention as Manager.Size, so sizes agree across Freeze.
func (f *Frozen) Size() int {
	if f.root == int32(False) || f.root == int32(True) {
		return 1
	}
	// Every internal node is reached, so a terminal is reached iff some
	// node lists it among its distinct children; the pages hold exactly
	// those lists.
	reached := [2]bool{}
	for _, pg := range f.kids {
		for _, k := range pg {
			if k < 2 {
				reached[k] = true
			}
		}
	}
	n := len(f.levels) - 2
	if reached[0] {
		n++
	}
	if reached[1] {
		n++
	}
	return n
}

// checkProbs validates the probability table against the domains.
// The row at level skip (−1 for none) is not read and may be nil.
func (f *Frozen) checkProbs(probs [][]float64, skip int) error {
	if len(probs) < len(f.domains) {
		return fmt.Errorf("mdd: probability table has %d levels, need %d", len(probs), len(f.domains))
	}
	for l, p := range probs[:len(f.domains)] {
		if l != skip && len(p) != int(f.domains[l]) {
			return fmt.Errorf("mdd: probability row %d has %d entries, want %d", l, len(p), f.domains[l])
		}
	}
	return nil
}

// PassBuffer is reusable scratch space for Split, letting tight loops
// amortize the per-node array a pass needs. Each goroutine must use
// its own buffer; a nil buffer allocates per call.
type PassBuffer struct {
	vals []float64
}

// nodes returns a scratch array with one entry per node.
func (buf *PassBuffer) nodes(n int) []float64 {
	if buf == nil {
		return make([]float64, n)
	}
	if cap(buf.vals) < n {
		buf.vals = make([]float64, n)
	}
	return buf.vals[:n]
}

// Split runs one pass over the snapshot that stops at the variable of
// the given level: it returns a vector g, one entry per value of that
// variable, and a scalar s such that for every distribution w of the
// variable
//
//	P(f = 1) = Σ_v w[v]·g[v] + s.
//
// g[v] sums, over the nodes at the level, the probability of reaching
// the node times the probability of its v-child; s is the probability
// carried by the paths that skip the level. The row probs[level] is
// not read and may be nil, so g and s depend only on the other rows.
//
// The pass visits every node once: a forward pass computes the value of
// each node below the level, a top-down pass the reach probability of
// each node at or above it, and the two share one array because the
// node sets are disjoint. Fold turns (g, s) and a row into P(f = 1).
func (f *Frozen) Split(probs [][]float64, level int, buf *PassBuffer) (g []float64, s float64, err error) {
	if level < 0 || level >= len(f.domains) {
		return nil, 0, fmt.Errorf("mdd: split level %d outside [0,%d)", level, len(f.domains))
	}
	if err := f.checkProbs(probs, level); err != nil {
		return nil, 0, err
	}
	g = make([]float64, f.domains[level])
	return g, f.split(probs, int32(level), buf.nodes(len(f.levels)), g), nil
}

func (f *Frozen) split(probs [][]float64, level int32, vals, g []float64) float64 {
	if f.wide {
		return splitPass(f, f.slots16, probs, level, vals, g)
	}
	return splitPass(f, f.slots8, probs, level, vals, g)
}

// splitPass is split over the snapshot's slot maps. Every loop runs over
// a node's values in value order and reads the value's child through
// the slot map, so each sum adds the same terms in the same order as a
// pass over one child per value.
func splitPass[S slot](f *Frozen, slots []S, probs [][]float64, level int32, vals, g []float64) (s float64) {
	levels, slotOff := f.levels, f.slotOff
	var x [narrowDomain]float64 // child values gathered by gatherValue
	vals[False], vals[True] = 0, 1
	for i := 2; i < len(levels); i++ {
		lv := levels[i]
		if lv <= level {
			vals[i] = 0 // the node's reach, accumulated below
			continue
		}
		row := probs[lv]
		off := int(slotOff[i])
		if ks, sl := f.distinct(i), slots[off:off+len(row)]; !f.wide && 4*len(ks) <= len(sl) {
			vals[i] = gatherValue(sl, ks, row, vals, &x)
		} else {
			vals[i] = valueOf(sl, ks, row, vals)
		}
	}
	if f.root < 2 || levels[f.root] > level {
		return vals[f.root]
	}
	// Parents follow their children, so walking down from the root
	// finishes each node's reach before the node is read.
	vals[f.root] = 1
	for i := int(f.root); i >= 2; i-- {
		lv := levels[i]
		reach := vals[i]
		if lv > level || reach == 0 {
			continue
		}
		ks := f.distinct(i)
		off := int(slotOff[i])
		if lv == level {
			addSplit(slots[off:off+len(g)], ks, g, vals, reach)
			continue
		}
		row := probs[lv]
		s = passReach(slots[off:off+len(row)], ks, row, vals, levels, level, reach, s)
	}
	return s
}

// The per-node loops below are kept out of line: inside the passes'
// node loops they would share the registers with a dozen live slices
// and spill their counters to the stack, which made the passes a third
// slower than over one child per value.

// valueOf returns Σ_v row[v]·vals[child of v] over one node's slot map
// sl and distinct children ks, skipping zero-probability values.
//
//go:noinline
func valueOf[S slot](sl []S, ks []int32, row, vals []float64) float64 {
	row = row[:len(sl)]
	total := 0.0
	for v, j := range sl {
		if p := row[v]; p != 0 {
			total += p * vals[ks[j]]
		}
	}
	return total
}

// gatherValue is valueOf for a node with few distinct children: it
// reads their values once into x and then each value's from x. The sum
// takes the same terms in the same order. On ESEN8x2, 6.6 distinct
// children for 56 values, the forward pass ran about 15% faster; with
// a distinct child for every two or three values, as on the MS
// systems, it did not. x holds one entry per slot of a byte-wide map,
// so it serves only those.
//
//go:noinline
func gatherValue[S slot](sl []S, ks []int32, row, vals []float64, x *[narrowDomain]float64) float64 {
	for j, k := range ks {
		x[j] = vals[k]
	}
	row = row[:len(sl)]
	total := 0.0
	for v, j := range sl {
		if p := row[v]; p != 0 {
			total += p * x[j]
		}
	}
	return total
}

// addSplit adds reach·vals[child of v] to g[v] for every value of a
// node at the split level.
//
//go:noinline
func addSplit[S slot](sl []S, ks []int32, g, vals []float64, reach float64) {
	g = g[:len(sl)]
	for v, j := range sl {
		g[v] += reach * vals[ks[j]]
	}
}

// passReach carries the reach of a node above the split level to its
// children: onto s for a child below the level (or a terminal), onto
// the child's reach otherwise. It returns the updated s.
//
//go:noinline
func passReach[S slot](sl []S, ks []int32, row, vals []float64, levels []int32, level int32, reach, s float64) float64 {
	row = row[:len(sl)]
	for v, j := range sl {
		p := row[v]
		if p == 0 {
			continue
		}
		if k := ks[j]; k < 2 || levels[k] > level {
			s += reach * p * vals[k]
		} else {
			vals[k] += reach * p
		}
	}
	return s
}

// Fold returns Σ_v row[v]·g[v] + s, the probability a Split pass
// describes under the distribution row. Zero-probability values are
// skipped, as in the forward pass.
func Fold(row, g []float64, s float64) float64 {
	total := 0.0
	for v, p := range row {
		if p != 0 {
			total += p * g[v]
		}
	}
	return total + s
}

// Prob returns P(f = 1) when the variables are independent and the
// variable at level l takes value v with probability probs[l][v]
// (probs[l] must have one entry per domain value; the sum is not
// checked, so sub-distributions can be integrated too). This is the
// depth-first traversal of Section 2 of the paper, run as the Split
// pass at the root's level, where the root is the only node, folded
// with the root's row. There g holds the root's child values and s is 0, so
// the sum is the one a plain forward pass forms. All scratch state is
// local, so any number of goroutines may call Prob concurrently on one
// snapshot.
func (f *Frozen) Prob(probs [][]float64) (float64, error) {
	if err := f.checkProbs(probs, -1); err != nil {
		return 0, err
	}
	if f.root < 2 {
		return float64(f.root), nil
	}
	lv := f.levels[f.root]
	g := make([]float64, f.domains[lv])
	s := f.split(probs, lv, make([]float64, len(f.levels)), g)
	return Fold(probs[lv], g, s), nil
}

// Grad returns P(f = 1) and its gradient with respect to every entry
// of the probability table: grad[l][v] = ∂P/∂probs[l][v]. It is one
// forward pass for the node values and one reverse pass for the node
// adjoints (the probability of reaching each node); the entry for
// (l, v) sums adjoint × v-child value over the nodes at level l.
func (f *Frozen) Grad(probs [][]float64) (p float64, grad [][]float64, err error) {
	if err := f.checkProbs(probs, -1); err != nil {
		return 0, nil, err
	}
	grad = make([][]float64, len(f.domains))
	for l, d := range f.domains {
		grad[l] = make([]float64, d)
	}
	// A split above every level is the plain forward pass: it leaves
	// the value of every node in vals.
	vals := make([]float64, len(f.levels))
	p = f.split(probs, -1, vals, nil)
	if f.root < 2 {
		return p, grad, nil
	}
	adj := make([]float64, len(f.levels))
	adj[f.root] = 1
	if f.wide {
		gradPass(f, f.slots16, probs, vals, adj, grad)
	} else {
		gradPass(f, f.slots8, probs, vals, adj, grad)
	}
	return p, grad, nil
}

// gradPass is Grad's reverse pass over the snapshot's slot maps.
func gradPass[S slot](f *Frozen, slots []S, probs [][]float64, vals, adj []float64, grad [][]float64) {
	levels, slotOff := f.levels, f.slotOff
	for i := int(f.root); i >= 2; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		lv := levels[i]
		row := probs[lv]
		off := int(slotOff[i])
		gradNode(slots[off:off+len(row)], f.distinct(i), row, grad[lv], vals, adj, a)
	}
}

// gradNode adds one node's terms, in value order, to the gradient row
// gr and to its children's adjoints.
//
//go:noinline
func gradNode[S slot](sl []S, ks []int32, row, gr, vals, adj []float64, a float64) {
	row, gr = row[:len(sl)], gr[:len(sl)]
	for v, j := range sl {
		k := ks[j]
		gr[v] += a * vals[k]
		if k >= 2 {
			adj[k] += a * row[v]
		}
	}
}

// Eval evaluates the frozen function under the assignment
// (assign[level] is the value of the variable at that level).
func (f *Frozen) Eval(assign []int) (bool, error) {
	n := f.root
	for n >= 2 {
		lv := int(f.levels[n])
		if lv >= len(assign) {
			return false, fmt.Errorf("mdd: assignment too short: need level %d, have %d values", lv, len(assign))
		}
		v := assign[lv]
		if v < 0 || v >= int(f.domains[lv]) {
			return false, fmt.Errorf("mdd: value %d outside domain of level %d (size %d)", v, lv, f.domains[lv])
		}
		n = f.kid(int(n), v)
	}
	return n == int32(True), nil
}

// ComputeStats returns the structural statistics of the frozen
// diagram, read off its arrays by one linear scan.
func (f *Frozen) ComputeStats() Stats {
	s := Stats{PerLevel: make([]int, len(f.domains))}
	edges := 0
	for i := 2; i < len(f.levels); i++ {
		lv := int(f.levels[i])
		s.PerLevel[lv]++
		if s.PerLevel[lv] > s.MaxWidth {
			s.MaxWidth = s.PerLevel[lv]
		}
		edges += int(f.domains[lv])
	}
	s.Nodes = f.Size()
	if internal := len(f.levels) - 2; internal > 0 {
		s.AvgDegree = float64(edges) / float64(internal)
	}
	return s
}
