// Package mdd implements reduced ordered multiple-value decision
// diagrams (ROMDDs) with boolean terminals: the data structure on which
// the paper's yield computation runs, and — through Apply — the direct
// construction route of Srinivasan et al. and Miller & Drechsler that
// the paper compares the coded-ROBDD route against.
//
// Each variable level has a fixed finite domain {0..d-1}. A
// non-terminal node at level l has exactly d(l) outgoing edges, one per
// domain value (the "edge labeled by a subset of values" view of the
// paper corresponds to several values sharing a child). Diagrams are
// reduced (no node has all children equal; no two nodes are identical)
// and ordered, hence canonical for a fixed level order.
//
// # Concurrency
//
// Construction (MkNode, And, Or, Xor, Not, Literal*) mutates the
// manager and must be serialized by the caller. Read-only operations
// (Size, Eval, ComputeStats, DOT, Kid, Kids, Level) allocate any
// scratch state per call, so once construction is finished any number
// of goroutines may run them concurrently on the same manager.
// Probabilities are computed only on an immutable compact snapshot
// ([Frozen]) of one rooted diagram, which Freeze extracts; it is safe
// to share unconditionally.
package mdd

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Node is a handle to an MDD node owned by a Manager. The zero Node is
// the False terminal.
type Node int32

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

// ErrNodeLimit is returned when an operation would exceed the
// configured node limit.
var ErrNodeLimit = errors.New("mdd: node limit exceeded")

const nilIdx = int32(-1)

type mnode struct {
	level   int32
	kidsOff int32
	next    int32
}

// Manager owns an ROMDD arena over a fixed sequence of variable
// domains.
type Manager struct {
	domains []int32
	nodes   []mnode
	kids    []Node
	buckets []int32
	limit   int
	// Instrumentation totals, maintained as plain fields because
	// construction is single-threaded by contract; BuildStats snapshots
	// them.
	uniqueHits   int64
	nodesCreated int64
	reduced      int64
	memoHits     int64
	memoMisses   int64
}

// Option configures a Manager.
type Option func(*Manager)

// WithNodeLimit bounds the number of nodes; operations exceeding it
// fail with ErrNodeLimit. 0 means unlimited.
func WithNodeLimit(n int) Option { return func(m *Manager) { m.limit = n } }

// New creates a manager for variables at levels 0..len(domains)-1,
// where the variable at level l takes values in {0..domains[l]-1}.
// Every domain must have at least two values.
func New(domains []int, opts ...Option) (*Manager, error) {
	m := &Manager{domains: make([]int32, len(domains))}
	for i, d := range domains {
		if d < 2 {
			return nil, fmt.Errorf("mdd: domain of level %d has size %d, need ≥ 2", i, d)
		}
		m.domains[i] = int32(d)
	}
	// Terminals at level len(domains).
	m.nodes = append(m.nodes, mnode{level: int32(len(domains)), next: nilIdx}, mnode{level: int32(len(domains)), next: nilIdx})
	m.resizeBuckets(1 << 10)
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// MustNew is New for statically valid domains; it panics on error.
func MustNew(domains []int, opts ...Option) *Manager {
	m, err := New(domains, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// NumVars returns the number of variable levels.
func (m *Manager) NumVars() int { return len(m.domains) }

// Domain returns the domain size of the variable at the given level.
func (m *Manager) Domain(level int) int { return int(m.domains[level]) }

// NumNodes returns the total number of nodes allocated, including the
// two terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// BuildStats is a point-in-time snapshot of the manager's construction
// instrumentation. (Stats, by contrast, describes the structure of one
// rooted diagram.) It must be read from the constructing goroutine or
// after construction has finished.
type BuildStats struct {
	// Nodes is the total node count including terminals.
	Nodes int
	// UniqueTableHits counts mk calls answered by an existing node,
	// NodesCreated fresh allocations, and Reductions mk calls collapsed
	// by the all-children-equal reduction rule.
	UniqueTableHits int64
	NodesCreated    int64
	Reductions      int64
	// ApplyMemoHits/Misses count lookups in the per-operation memo
	// tables of And/Or/Xor.
	ApplyMemoHits   int64
	ApplyMemoMisses int64
}

// BuildStats returns the current construction instrumentation.
func (m *Manager) BuildStats() BuildStats {
	return BuildStats{
		Nodes:           len(m.nodes),
		UniqueTableHits: m.uniqueHits,
		NodesCreated:    m.nodesCreated,
		Reductions:      m.reduced,
		ApplyMemoHits:   m.memoHits,
		ApplyMemoMisses: m.memoMisses,
	}
}

// Level returns the level of n, or NumVars() for terminals.
func (m *Manager) Level(n Node) int { return int(m.nodes[n].level) }

// IsTerminal reports whether n is False or True.
func (m *Manager) IsTerminal(n Node) bool { return n == False || n == True }

// Kid returns the child of n for the given domain value.
// n must not be a terminal.
func (m *Manager) Kid(n Node, value int) Node {
	nd := &m.nodes[n]
	return m.kids[int(nd.kidsOff)+value]
}

// Kids returns the children of n in domain-value order. The returned
// slice aliases manager storage and must not be modified.
func (m *Manager) Kids(n Node) []Node {
	nd := &m.nodes[n]
	return m.kids[nd.kidsOff : int(nd.kidsOff)+int(m.domains[nd.level])]
}

func (m *Manager) resizeBuckets(n int) {
	m.buckets = make([]int32, n)
	for i := range m.buckets {
		m.buckets[i] = nilIdx
	}
	for i := 2; i < len(m.nodes); i++ {
		b := m.hashNode(m.nodes[i].level, m.kidsAt(int32(i)))
		m.nodes[i].next = m.buckets[b]
		m.buckets[b] = int32(i)
	}
}

func (m *Manager) kidsAt(idx int32) []Node {
	nd := &m.nodes[idx]
	return m.kids[nd.kidsOff : int(nd.kidsOff)+int(m.domains[nd.level])]
}

func (m *Manager) hashNode(level int32, kids []Node) uint32 {
	h := uint32(level)*0x9e3779b1 + 0x85ebca77
	for _, k := range kids {
		h ^= uint32(k) + 0x9e3779b9 + (h << 6) + (h >> 2)
	}
	return h & uint32(len(m.buckets)-1)
}

type errLimitPanic struct{}

func (m *Manager) guard(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(errLimitPanic); ok {
			*err = ErrNodeLimit
			return
		}
		panic(r)
	}
}

// mk returns the canonical node at level with the given children,
// applying the MDD reduction rule.
func (m *Manager) mk(level int32, kids []Node) Node {
	allEq := true
	for _, k := range kids[1:] {
		if k != kids[0] {
			allEq = false
			break
		}
	}
	if allEq {
		m.reduced++
		return kids[0]
	}
	b := m.hashNode(level, kids)
	for i := m.buckets[b]; i != nilIdx; i = m.nodes[i].next {
		nd := &m.nodes[i]
		if nd.level != level {
			continue
		}
		have := m.kidsAt(i)
		same := true
		for j := range kids {
			if have[j] != kids[j] {
				same = false
				break
			}
		}
		if same {
			m.uniqueHits++
			return Node(i)
		}
	}
	if m.limit > 0 && len(m.nodes) >= m.limit {
		panic(errLimitPanic{})
	}
	m.nodesCreated++
	off := int32(len(m.kids))
	m.kids = append(m.kids, kids...)
	idx := int32(len(m.nodes))
	m.nodes = append(m.nodes, mnode{level: level, kidsOff: off, next: m.buckets[b]})
	m.buckets[b] = idx
	if len(m.nodes) > 2*len(m.buckets) {
		m.resizeBuckets(2 * len(m.buckets))
	}
	return Node(idx)
}

// MkNode returns the canonical node for the given level and children
// (one child per domain value). It applies the reduction rule, so the
// result may be one of the children itself.
func (m *Manager) MkNode(level int, kids []Node) (Node, error) {
	if level < 0 || level >= len(m.domains) {
		return False, fmt.Errorf("mdd: level %d out of range [0,%d)", level, len(m.domains))
	}
	if len(kids) != int(m.domains[level]) {
		return False, fmt.Errorf("mdd: level %d wants %d children, got %d", level, m.domains[level], len(kids))
	}
	for _, k := range kids {
		if int(k) < 0 || int(k) >= len(m.nodes) {
			return False, fmt.Errorf("mdd: child handle %d out of range", k)
		}
		if k > True && m.nodes[k].level <= int32(level) {
			return False, fmt.Errorf("mdd: child at level %d violates ordering under parent level %d", m.nodes[k].level, level)
		}
	}
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.mk(int32(level), kids)
	}()
	return out, err
}

// LiteralEq returns the boolean function [x_level == value].
func (m *Manager) LiteralEq(level, value int) (Node, error) {
	if level < 0 || level >= len(m.domains) {
		return False, fmt.Errorf("mdd: level %d out of range [0,%d)", level, len(m.domains))
	}
	if value < 0 || value >= int(m.domains[level]) {
		return False, fmt.Errorf("mdd: value %d outside domain of level %d (size %d)", value, level, m.domains[level])
	}
	kids := make([]Node, m.domains[level])
	kids[value] = True
	return m.MkNode(level, kids)
}

// LiteralGeq returns the boolean function [x_level >= value].
func (m *Manager) LiteralGeq(level, value int) (Node, error) {
	if level < 0 || level >= len(m.domains) {
		return False, fmt.Errorf("mdd: level %d out of range [0,%d)", level, len(m.domains))
	}
	if value < 0 || value >= int(m.domains[level]) {
		return False, fmt.Errorf("mdd: value %d outside domain of level %d (size %d)", value, level, m.domains[level])
	}
	kids := make([]Node, m.domains[level])
	for v := value; v < int(m.domains[level]); v++ {
		kids[v] = True
	}
	return m.MkNode(level, kids)
}

type opKind uint8

const (
	opAnd opKind = iota + 1
	opOr
	opXor
)

type applyKey struct {
	op   opKind
	a, b Node
}

// apply computes the binary boolean combination of two MDDs.
func (m *Manager) apply(op opKind, a, b Node, memo map[applyKey]Node) Node {
	// Terminal short-cuts.
	switch op {
	case opAnd:
		if a == False || b == False {
			return False
		}
		if a == True {
			return b
		}
		if b == True {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == True || b == True {
			return True
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == b {
			return False
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
	}
	if a > b && (op == opAnd || op == opOr || op == opXor) {
		a, b = b, a
	}
	key := applyKey{op: op, a: a, b: b}
	if r, ok := memo[key]; ok {
		m.memoHits++
		return r
	}
	m.memoMisses++
	la, lb := m.nodes[a].level, m.nodes[b].level
	top := la
	if lb < top {
		top = lb
	}
	d := int(m.domains[top])
	kids := make([]Node, d)
	for v := 0; v < d; v++ {
		ca, cb := a, b
		if la == top {
			ca = m.Kid(a, v)
		}
		if lb == top {
			cb = m.Kid(b, v)
		}
		kids[v] = m.apply(op, ca, cb, memo)
	}
	r := m.mk(top, kids)
	memo[key] = r
	// XOR of a==True cases handled by short-cuts; nothing else to do.
	return r
}

func (m *Manager) binop(op opKind, a, b Node) (Node, error) {
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.apply(op, a, b, make(map[applyKey]Node))
	}()
	return out, err
}

// And returns the conjunction of the arguments (True when empty).
func (m *Manager) And(xs ...Node) (Node, error) {
	out := True
	for _, x := range xs {
		r, err := m.binop(opAnd, out, x)
		if err != nil {
			return False, err
		}
		out = r
	}
	return out, nil
}

// Or returns the disjunction of the arguments (False when empty).
func (m *Manager) Or(xs ...Node) (Node, error) {
	out := False
	for _, x := range xs {
		r, err := m.binop(opOr, out, x)
		if err != nil {
			return False, err
		}
		out = r
	}
	return out, nil
}

// Xor returns the exclusive-or of a and b.
func (m *Manager) Xor(a, b Node) (Node, error) { return m.binop(opXor, a, b) }

// Not returns the complement of a.
func (m *Manager) Not(a Node) (Node, error) {
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.notRec(a, make(map[Node]Node))
	}()
	return out, err
}

func (m *Manager) notRec(a Node, memo map[Node]Node) Node {
	if a == False {
		return True
	}
	if a == True {
		return False
	}
	if r, ok := memo[a]; ok {
		return r
	}
	old := m.Kids(a)
	kids := make([]Node, len(old))
	for i, k := range old {
		kids[i] = m.notRec(k, memo)
	}
	r := m.mk(m.nodes[a].level, kids)
	memo[a] = r
	return r
}

// Eval evaluates the boolean function rooted at n under the assignment
// (assign[level] is the value of the variable at that level).
func (m *Manager) Eval(n Node, assign []int) (bool, error) {
	for !m.IsTerminal(n) {
		nd := &m.nodes[n]
		lv := int(nd.level)
		if lv >= len(assign) {
			return false, fmt.Errorf("mdd: assignment too short: need level %d, have %d values", lv, len(assign))
		}
		v := assign[lv]
		if v < 0 || v >= int(m.domains[lv]) {
			return false, fmt.Errorf("mdd: value %d outside domain of level %d (size %d)", v, lv, m.domains[lv])
		}
		n = m.Kid(n, v)
	}
	return n == True, nil
}

// Size returns the number of nodes in the diagram rooted at n,
// including the terminals it reaches. The visited set is allocated per
// call, so concurrent Size calls on a fully built manager are safe.
func (m *Manager) Size(n Node) int {
	return m.sizeRec(n, make([]bool, len(m.nodes)))
}

func (m *Manager) sizeRec(n Node, seen []bool) int {
	if seen[n] {
		return 0
	}
	seen[n] = true
	if m.IsTerminal(n) {
		return 1
	}
	total := 1
	for _, k := range m.Kids(n) {
		total += m.sizeRec(k, seen)
	}
	return total
}

// DOT renders the diagram rooted at n in Graphviz dot syntax. Variable
// names are taken from names when provided (indexed by level).
func (m *Manager) DOT(n Node, title string, names []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	m.dotRec(n, make([]bool, len(m.nodes)), names, &sb)
	sb.WriteString("}\n")
	return sb.String()
}

func (m *Manager) dotRec(n Node, seen []bool, names []string, sb *strings.Builder) {
	if seen[n] {
		return
	}
	seen[n] = true
	if m.IsTerminal(n) {
		fmt.Fprintf(sb, "  n%d [shape=box label=\"%d\"];\n", n, n)
		return
	}
	lv := int(m.nodes[n].level)
	label := fmt.Sprintf("x%d", lv)
	if lv < len(names) && names[lv] != "" {
		label = names[lv]
	}
	fmt.Fprintf(sb, "  n%d [shape=circle label=%q];\n", n, label)
	// Group values sharing a child on one edge, as the paper draws them.
	byKid := make(map[Node][]int)
	for v, k := range m.Kids(n) {
		byKid[k] = append(byKid[k], v)
	}
	for _, k := range m.Kids(n) {
		vals, ok := byKid[k]
		if !ok {
			continue
		}
		delete(byKid, k)
		lbl := make([]string, len(vals))
		for i, v := range vals {
			lbl[i] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(sb, "  n%d -> n%d [label=%q];\n", n, k, strings.Join(lbl, ","))
		m.dotRec(k, seen, names, sb)
	}
}

// Stats summarizes the diagram rooted at n.
type Stats struct {
	Nodes     int // total nodes including terminals
	PerLevel  []int
	MaxWidth  int // widest level
	AvgDegree float64
}

// ComputeStats returns structural statistics for the diagram rooted
// at n.
func (m *Manager) ComputeStats(n Node) Stats {
	s := Stats{PerLevel: make([]int, len(m.domains))}
	seen := make([]bool, len(m.nodes))
	edges := 0
	var walk func(Node)
	var nodes int
	walk = func(x Node) {
		if seen[x] {
			return
		}
		seen[x] = true
		nodes++
		if m.IsTerminal(x) {
			return
		}
		lv := int(m.nodes[x].level)
		s.PerLevel[lv]++
		if s.PerLevel[lv] > s.MaxWidth {
			s.MaxWidth = s.PerLevel[lv]
		}
		for _, k := range m.Kids(x) {
			edges++
			walk(k)
		}
	}
	walk(n)
	s.Nodes = nodes
	internal := nodes
	if n != False && n != True {
		internal = nodes - countTerminalsReached(m, n)
	}
	if internal > 0 {
		s.AvgDegree = float64(edges) / math.Max(1, float64(internal))
	}
	return s
}

func countTerminalsReached(m *Manager, n Node) int {
	seen := make([]bool, len(m.nodes))
	count := 0
	var walk func(Node)
	walk = func(x Node) {
		if seen[x] {
			return
		}
		seen[x] = true
		if m.IsTerminal(x) {
			count++
			return
		}
		for _, k := range m.Kids(x) {
			walk(k)
		}
	}
	walk(n)
	return count
}
