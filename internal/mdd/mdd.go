// Package mdd implements reduced ordered multiple-value decision
// diagrams (ROMDDs) with boolean terminals: the data structure on which
// the paper's yield computation runs, and — through Apply — the direct
// construction route of Srinivasan et al. and Miller & Drechsler that
// the paper compares the coded-ROBDD route against.
//
// Each variable level has a fixed finite domain {0..d-1}, with
// 2 ≤ d ≤ MaxDomain. A non-terminal node at level l has one child per
// domain value. Diagrams are reduced (no node has all children equal;
// no two nodes are identical) and ordered, hence canonical for a fixed
// level order.
//
// # Layout
//
// The paper draws a node's edges "labeled by subsets of values", and
// that is how a node is stored: its distinct children, in the order of
// the first value leading to each, and a slot map giving, for every
// value, the index of its child in that list. Slot maps are one byte
// per value when every domain has at most 256 values (every paper
// benchmark: C ≤ 120) and two bytes up to MaxDomain; the distinct
// children sit in pages that are never copied. A frozen ESEN8x2 model
// has 17.0M values but only 2.0M distinct children, so its children
// take 24.0 MiB instead of the 64.9 MiB of one int32 per value.
// The probability passes still run one step per value, in value order,
// reading the child through the slot map, so every sum is the one a
// flat child array gives. The serialized form (FrozenData) keeps one
// child per value: Data expands it, FrozenFromData compacts it.
//
// # Concurrency
//
// Construction (MkNode, And, Or, Xor, Not, Literal*) mutates the
// manager and must be serialized by the caller. Read-only operations
// (Size, Eval, DOT, Kid, Kids, Level) allocate any
// scratch state per call, so once construction is finished any number
// of goroutines may run them concurrently on the same manager.
// Probabilities are computed only on an immutable compact snapshot
// ([Frozen]) of one rooted diagram, which Freeze extracts; it is safe
// to share unconditionally.
package mdd

import (
	"errors"
	"fmt"
	"slices"
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

// Manager owns an ROMDD arena over a fixed sequence of variable
// domains.
type Manager struct {
	arena
	// chain links each node into its unique-table bucket, beside the
	// node's full hash: a lookup reads one entry per node it passes and
	// compares a node only on a hash match, and a rehash needs no
	// node.
	chain   []chainLink
	buckets []int32
	limit   int
	// Scratch of mk: the compact form of the node being made, and one
	// entry per node for compactKids.
	dk   []int32
	sl8  []uint8
	sl16 []uint16
	pos  []int32
	// Instrumentation totals, maintained as plain fields because
	// construction is single-threaded by contract; BuildStats snapshots
	// them.
	uniqueHits   int64
	nodesCreated int64
	reduced      int64
	memoHits     int64
	memoMisses   int64
}

// chainLink is a node's unique-table entry: the next node in its
// bucket and the node's hash.
type chainLink struct {
	next int32
	hash uint32
}

// Option configures a Manager.
type Option func(*Manager)

// WithNodeLimit bounds the number of nodes; operations exceeding it
// fail with ErrNodeLimit. 0 means unlimited.
func WithNodeLimit(n int) Option { return func(m *Manager) { m.limit = n } }

// New creates a manager for variables at levels 0..len(domains)-1,
// where the variable at level l takes values in {0..domains[l]-1}.
// Every domain must have at least two and at most MaxDomain values.
func New(domains []int, opts ...Option) (*Manager, error) {
	doms := make([]int32, len(domains))
	for i, d := range domains {
		if d < 2 {
			return nil, fmt.Errorf("mdd: domain of level %d has size %d, need ≥ 2", i, d)
		}
		if d > MaxDomain {
			return nil, fmt.Errorf("mdd: domain of level %d has size %d, over the limit %d", i, d, MaxDomain)
		}
		doms[i] = int32(d)
	}
	// Terminals at level len(domains).
	m := &Manager{arena: newArena(doms), chain: []chainLink{{next: nilIdx}, {next: nilIdx}}}
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
func (m *Manager) NumNodes() int { return len(m.levels) }

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
		Nodes:           len(m.levels),
		UniqueTableHits: m.uniqueHits,
		NodesCreated:    m.nodesCreated,
		Reductions:      m.reduced,
		ApplyMemoHits:   m.memoHits,
		ApplyMemoMisses: m.memoMisses,
	}
}

// Level returns the level of n, or NumVars() for terminals.
func (m *Manager) Level(n Node) int { return int(m.levels[n]) }

// IsTerminal reports whether n is False or True.
func (m *Manager) IsTerminal(n Node) bool { return n == False || n == True }

// Kid returns the child of n for the given domain value.
// n must not be a terminal.
func (m *Manager) Kid(n Node, value int) Node { return Node(m.kid(int(n), value)) }

// Kids returns the children of n in domain-value order, in a new
// slice: a node stores only its distinct children and a slot map.
func (m *Manager) Kids(n Node) []Node {
	out := make([]Node, 0, m.domains[m.levels[n]])
	for v := range cap(out) {
		out = append(out, m.Kid(n, v))
	}
	return out
}

// Capacity returns the nodes and the per-value child entries (the sum
// of the nodes' domain sizes) the arena has room for, used or not.
func (m *Manager) Capacity() (nodes, values int) {
	return cap(m.levels), cap(m.slots8) + cap(m.slots16)
}

func (m *Manager) resizeBuckets(n int) {
	m.buckets = make([]int32, n)
	for i := range m.buckets {
		m.buckets[i] = nilIdx
	}
	for i := 2; i < len(m.levels); i++ {
		b := m.chain[i].hash & uint32(n-1)
		m.chain[i].next = m.buckets[b]
		m.buckets[b] = int32(i)
	}
}

// hashNode hashes a node's compact form: equal nodes have equal
// distinct-child lists and slot maps.
func hashNode[S slot](level int32, dk []int32, sl []S) uint32 {
	h := uint32(level)*0x9e3779b1 + 0x85ebca77
	for _, k := range dk {
		h ^= uint32(k) + 0x9e3779b9 + (h << 6) + (h >> 2)
	}
	for _, s := range sl {
		h ^= uint32(s) + 0x9e3779b9 + (h << 6) + (h >> 2)
	}
	return h
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
	if len(m.pos) < len(m.levels) {
		m.pos = slices.Grow(m.pos, len(m.levels)-len(m.pos))[:len(m.levels)]
	}
	if m.wide {
		return mkSlots(m, level, kids, &m.slots16, &m.sl16)
	}
	return mkSlots(m, level, kids, &m.slots8, &m.sl8)
}

// mkSlots is mk over the manager's slot maps, slots, with sl as the
// scratch slot map of the node being made.
func mkSlots[S slot](m *Manager, level int32, kids []Node, slots, sl *[]S) Node {
	*sl = slices.Grow((*sl)[:0], len(kids))[:len(kids)]
	m.dk, _ = compactKids(kids, len(m.levels), m.pos, m.dk[:0], *sl)
	dk := m.dk
	if len(dk) == 1 {
		m.reduced++
		return kids[0]
	}
	h := hashNode(level, dk, *sl)
	b := h & uint32(len(m.buckets)-1)
	for i := m.buckets[b]; i != nilIdx; i = m.chain[i].next {
		if m.chain[i].hash == h && m.levels[i] == level && slices.Equal(m.distinct(int(i)), dk) &&
			slices.Equal((*slots)[m.slotOff[i]:int(m.slotOff[i])+len(kids)], *sl) {
			m.uniqueHits++
			return Node(i)
		}
	}
	if m.limit > 0 && len(m.levels) >= m.limit {
		panic(errLimitPanic{})
	}
	m.nodesCreated++
	idx := int32(len(m.levels))
	m.levels = append(m.levels, level)
	m.slotOff = append(m.slotOff, int32(len(*slots)))
	*slots = append(*slots, *sl...)
	m.appendDistinct(dk, m.nextKidPage())
	m.chain = append(m.chain, chainLink{next: m.buckets[b], hash: h})
	m.buckets[b] = idx
	if len(m.levels) > 2*len(m.buckets) {
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
		if int(k) < 0 || int(k) >= len(m.levels) {
			return False, fmt.Errorf("mdd: child handle %d out of range", k)
		}
		if k > True && m.levels[k] <= int32(level) {
			return False, fmt.Errorf("mdd: child at level %d violates ordering under parent level %d", m.levels[k], level)
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

// reservation returns what Reserve(nodes, values) adds: the nodes and
// slot-map entries the node limit still admits, and the unique table's
// new bucket count (0 when it keeps its size).
func (m *Manager) reservation(nodes, values int) (int, int, int) {
	if room := m.limit - len(m.levels); m.limit > 0 && nodes > room {
		room = max(room, 0)
		values = int(int64(values) * int64(room) / int64(nodes))
		nodes = room
	}
	b := len(m.buckets)
	for len(m.levels)+nodes > 2*b {
		b *= 2
	}
	if b == len(m.buckets) {
		b = 0
	}
	return nodes, values, b
}

// Reserve makes room for nodes more nodes holding values more slot-map
// entries in all (the sum of their domain sizes): the per-node arrays
// and the slot maps grow to exactly that size and the unique table to
// the size it would reach, so inserting that many nodes neither
// reallocates them nor rehashes. The distinct children are not
// reserved: there are usually far fewer of them than values, and their
// number is known only once the nodes are made, so they grow in pages.
// Under a node limit the reservation is cut to the nodes the
// limit still allows, and values in proportion, so the arena never
// grows past what the limit admits.
func (m *Manager) Reserve(nodes, values int) {
	nodes, values, b := m.reservation(nodes, values)
	m.levels = grow(m.levels, nodes)
	m.kidEnd = grow(m.kidEnd, nodes)
	m.slotOff = grow(m.slotOff, nodes)
	m.chain = grow(m.chain, nodes)
	m.pos = grow(m.pos, len(m.levels)+nodes-len(m.pos))
	if m.wide {
		m.slots16 = grow(m.slots16, values)
	} else {
		m.slots8 = grow(m.slots8, values)
	}
	if b > 0 {
		m.resizeBuckets(b)
	}
}

// grow returns s with room for exactly n more elements, or s itself
// when it has the room already.
func grow[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		return append(make([]T, 0, need), s...)
	}
	return s
}

// ReserveBytes bounds the bytes that nodes more nodes holding values
// more slot-map entries take: what Reserve(nodes, values) allocates if
// the arena has no spare room — 24 bytes per node (level, child end,
// slot offset, bucket link and hash, compaction scratch), the slot
// maps and the unique table it grows to — plus the pages of their
// distinct children, at most one int32 per value. A caller about to
// reserve can weigh that against the heap first.
func (m *Manager) ReserveBytes(nodes, values int) int {
	nodes, values, b := m.reservation(nodes, values)
	width := 1
	if m.wide {
		width = 2
	}
	return 24*(len(m.levels)+nodes) + width*(m.numValues()+values) + 4*b + 4*values
}

// Build runs fn, which creates nodes through mk, under one node-limit
// guard. mk is MkNode without its per-call checks and recover: the
// caller guarantees that kids has one entry per value of the level's
// domain and that every child is a node of m at a deeper level. When
// the node limit is reached, mk abandons fn and Build returns
// ErrNodeLimit.
func (m *Manager) Build(fn func(mk func(level int, kids []Node) Node)) (err error) {
	defer m.guard(&err)
	fn(func(level int, kids []Node) Node { return m.mk(int32(level), kids) })
	return nil
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
	la, lb := m.levels[a], m.levels[b]
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
	kids := m.Kids(a)
	for i, k := range kids {
		kids[i] = m.notRec(k, memo)
	}
	r := m.mk(m.levels[a], kids)
	memo[a] = r
	return r
}

// Eval evaluates the boolean function rooted at n under the assignment
// (assign[level] is the value of the variable at that level).
func (m *Manager) Eval(n Node, assign []int) (bool, error) {
	for !m.IsTerminal(n) {
		lv := int(m.levels[n])
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
	return m.sizeRec(n, make([]bool, len(m.levels)))
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
	for _, k := range m.distinct(int(n)) {
		total += m.sizeRec(Node(k), seen)
	}
	return total
}

// DOT renders the diagram rooted at n in Graphviz dot syntax. Variable
// names are taken from names when provided (indexed by level).
func (m *Manager) DOT(n Node, title string, names []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	m.dotRec(n, make([]bool, len(m.levels)), names, &sb)
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
	lv := int(m.levels[n])
	label := fmt.Sprintf("x%d", lv)
	if lv < len(names) && names[lv] != "" {
		label = names[lv]
	}
	fmt.Fprintf(sb, "  n%d [shape=circle label=%q];\n", n, label)
	// One edge per distinct child, labeled with the values sharing it,
	// as the paper draws them.
	for j, k := range m.distinct(int(n)) {
		var lbl []string
		for v := range int(m.domains[lv]) {
			if m.slotOf(int(n), v) == j {
				lbl = append(lbl, fmt.Sprintf("%d", v))
			}
		}
		fmt.Fprintf(sb, "  n%d -> n%d [label=%q];\n", n, k, strings.Join(lbl, ","))
		m.dotRec(Node(k), seen, names, sb)
	}
}

// Stats summarizes the structure of one rooted diagram, as
// Frozen.ComputeStats reports it.
type Stats struct {
	Nodes     int // total nodes including terminals
	PerLevel  []int
	MaxWidth  int // widest level
	AvgDegree float64
}
