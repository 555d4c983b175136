package mdd

import (
	"fmt"
	"unsafe"
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
	domains []int32
	// levels[i] is the level of compact node i; terminals keep indices
	// 0 (False) and 1 (True) with level == len(domains).
	levels []int32
	// kidsOff[i] points into kids; node i's children are
	// kids[kidsOff[i] : kidsOff[i]+domains[levels[i]]].
	kidsOff []int32
	kids    []int32
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
// coded-ROBDD converter produces — Freeze adopts the manager's child
// array instead of copying it. This is safe because the manager never
// rewrites a child entry, only appends new ones past the snapshot's
// end. Otherwise (a manager built by direct MDD operations, or one
// holding nodes the root does not reach) Freeze copies the reachable
// nodes by a post-order DFS. Both paths give the same FrozenData.
func (m *Manager) Freeze(n Node) *Frozen {
	f := &Frozen{
		domains: append([]int32(nil), m.domains...),
		levels:  []int32{int32(len(m.domains)), int32(len(m.domains))},
		kidsOff: []int32{0, 0},
		root:    int32(n),
	}
	if m.IsTerminal(n) {
		return f
	}
	if m.inFreezeOrder(n) {
		f.levels = make([]int32, len(m.nodes))
		f.kidsOff = make([]int32, len(m.nodes))
		for i, nd := range m.nodes {
			f.levels[i], f.kidsOff[i] = nd.level, nd.kidsOff
		}
		// Node's underlying type is int32, so this reinterprets the
		// manager's child array without copying it.
		f.kids = unsafe.Slice((*int32)(unsafe.SliceData(m.kids)), len(m.kids))
		return f
	}
	// Post-order DFS assigns compact indices so that children precede
	// parents; remap[] carries old → new indices.
	remap := make([]int32, len(m.nodes))
	for i := range remap {
		remap[i] = nilIdx
	}
	remap[False], remap[True] = 0, 1
	var walk func(Node) int32
	walk = func(x Node) int32 {
		if remap[x] != nilIdx {
			return remap[x]
		}
		lv := int(m.nodes[x].level)
		old := m.Kids(x)
		mapped := make([]int32, len(old))
		for i, k := range old {
			mapped[i] = walk(k)
		}
		idx := int32(len(f.levels))
		f.levels = append(f.levels, int32(lv))
		f.kidsOff = append(f.kidsOff, int32(len(f.kids)))
		f.kids = append(f.kids, mapped...)
		remap[x] = idx
		return idx
	}
	f.root = walk(n)
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
	next := Node(2)
	var walk func(Node) bool
	walk = func(x Node) bool {
		if x < next {
			return true
		}
		for _, k := range m.Kids(x) {
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
	return walk(root) && int(next) == len(m.nodes)
}

// FrozenData is the raw arena content of a Frozen snapshot, exposed
// for serialization. Levels covers every node including the two
// terminal slots (indices 0 and 1, whose level is len(Domains)); Kids
// concatenates the child arrays of the internal nodes in node order.
// The per-node child offsets are deliberately absent: they are a
// prefix sum of the domain sizes along Levels, so FrozenFromData
// recomputes them, removing a whole class of inconsistent input.
type FrozenData struct {
	Domains []int32
	Levels  []int32
	Kids    []int32
	Root    int32
}

// Data returns the snapshot's arena for serialization. The returned
// slices alias the snapshot's internal arrays and must not be
// modified.
func (f *Frozen) Data() FrozenData {
	return FrozenData{Domains: f.domains, Levels: f.levels, Kids: f.kids, Root: f.root}
}

// FrozenFromData reconstructs a Frozen snapshot from its raw arena,
// validating every structural invariant evaluation relies on, so that
// a snapshot built from arbitrary (even hostile) input can never make
// Prob, Eval, Size or ComputeStats read out of bounds or loop:
//
//   - every domain has ≥ 2 values (the Manager's own constraint);
//   - nodes 0 and 1 are the terminals (level == len(Domains));
//   - every internal node's level is a valid variable level;
//   - the concatenated child arrays cover Kids exactly;
//   - children strictly precede their parent (kid index < node index),
//     which both guarantees Eval terminates and gives the probability
//     passes their node order;
//   - internal children sit at strictly deeper levels than their
//     parent (the ordered-diagram property Manager.MkNode enforces);
//   - the root is a valid node index.
//
// The function takes ownership of the slices in d; callers must not
// modify them afterwards.
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
	}
	if len(d.Levels) < 2 {
		return nil, fmt.Errorf("mdd: frozen data: %d nodes, need the 2 terminals", len(d.Levels))
	}
	if d.Levels[0] != nvars || d.Levels[1] != nvars {
		return nil, fmt.Errorf("mdd: frozen data: terminal levels (%d, %d) != %d", d.Levels[0], d.Levels[1], nvars)
	}
	kidsOff := make([]int32, len(d.Levels))
	off := int64(0)
	for i := 2; i < len(d.Levels); i++ {
		lv := d.Levels[i]
		if lv < 0 || lv >= nvars {
			return nil, fmt.Errorf("mdd: frozen data: node %d at level %d outside [0,%d)", i, lv, nvars)
		}
		if off > int64(len(d.Kids)) {
			return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries, Kids has %d", off, len(d.Kids))
		}
		kidsOff[i] = int32(off)
		off += int64(d.Domains[lv])
	}
	if off != int64(len(d.Kids)) {
		return nil, fmt.Errorf("mdd: frozen data: child arrays need %d entries, Kids has %d", off, len(d.Kids))
	}
	for i := 2; i < len(d.Levels); i++ {
		end := int64(len(d.Kids))
		if i+1 < len(d.Levels) {
			end = int64(kidsOff[i+1])
		}
		for _, k := range d.Kids[kidsOff[i]:end] {
			if k < 0 || int(k) >= i {
				return nil, fmt.Errorf("mdd: frozen data: node %d has child %d outside [0,%d)", i, k, i)
			}
			if k >= 2 && d.Levels[k] <= d.Levels[i] {
				return nil, fmt.Errorf("mdd: frozen data: node %d (level %d) has child %d at level %d, want deeper", i, d.Levels[i], k, d.Levels[k])
			}
		}
	}
	if d.Root < 0 || int(d.Root) >= len(d.Levels) {
		return nil, fmt.Errorf("mdd: frozen data: root %d outside [0,%d)", d.Root, len(d.Levels))
	}
	return &Frozen{domains: d.Domains, levels: d.Levels, kidsOff: kidsOff, kids: d.Kids, root: d.Root}, nil
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
	reached := [2]bool{}
	for i := 2; i < len(f.levels); i++ {
		d := int(f.domains[f.levels[i]])
		off := int(f.kidsOff[i])
		for _, k := range f.kids[off : off+d] {
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

func (f *Frozen) split(probs [][]float64, level int32, vals, g []float64) (s float64) {
	vals[False], vals[True] = 0, 1
	for i := 2; i < len(f.levels); i++ {
		lv := f.levels[i]
		if lv <= level {
			vals[i] = 0 // the node's reach, accumulated below
			continue
		}
		row := probs[lv]
		off := int(f.kidsOff[i])
		total := 0.0
		for v, k := range f.kids[off : off+len(row)] {
			if p := row[v]; p != 0 {
				total += p * vals[k]
			}
		}
		vals[i] = total
	}
	if f.root < 2 || f.levels[f.root] > level {
		return vals[f.root]
	}
	// Parents follow their children, so walking down from the root
	// finishes each node's reach before the node is read.
	vals[f.root] = 1
	for i := int(f.root); i >= 2; i-- {
		lv := f.levels[i]
		reach := vals[i]
		if lv > level || reach == 0 {
			continue
		}
		off := int(f.kidsOff[i])
		if lv == level {
			for v, k := range f.kids[off : off+len(g)] {
				g[v] += reach * vals[k]
			}
			continue
		}
		row := probs[lv]
		for v, k := range f.kids[off : off+len(row)] {
			p := row[v]
			if p == 0 {
				continue
			}
			if k < 2 || f.levels[k] > level {
				s += reach * p * vals[k]
			} else {
				vals[k] += reach * p
			}
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
	for i := int(f.root); i >= 2; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		lv := f.levels[i]
		row, gr := probs[lv], grad[lv]
		off := int(f.kidsOff[i])
		for v, k := range f.kids[off : off+len(row)] {
			gr[v] += a * vals[k]
			if k >= 2 {
				adj[k] += a * row[v]
			}
		}
	}
	return p, grad, nil
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
		n = f.kids[int(f.kidsOff[n])+v]
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
