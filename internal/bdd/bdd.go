// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) in the style of Brace–Rudell–Bryant and of the CMU BDD
// library the paper builds on: complement edges with a single terminal
// and the canonical "regular then-edge" form, a node arena with an
// embedded-chain unique table, a two-way set-associative ITE operation
// cache, an n-ary apply for wide conjunctions/disjunctions, external
// reference counting, mark-sweep garbage collection with free-list
// reuse, a configurable node limit, and peak-occupancy tracking (the
// paper's "ROBDD peak" column).
//
// # Complement edges
//
// A Node handle packs an arena index and a complement bit: the handle
// idx<<1|1 denotes the pointwise negation of the function stored at
// idx<<1. Only one terminal node is stored (the constant-false
// function); True is its complemented handle, so Not is a single bit
// flip and a function and its negation share every node. Canonical
// form follows CUDD: a stored node's then-edge (Hi) is always regular
// (complement bits are pushed onto the else-edge and the handle), so
// for a fixed order equivalent functions are represented by the same
// handle. The accessors (Lo, Hi, Level, Eval, ...) resolve polarity
// transparently; callers never need to inspect the complement bit.
//
// # Operation cache
//
// The ITE cache starts at 4,096 entries and doubles with the unique
// table up to maxCacheEntries (2^20 entries, 16 MiB); past that, the
// unique table keeps growing and the cache stays put. Nothing throws
// the cache away: a growth rehashes every entry into the larger cache,
// and a GC drops only the entries that name a node it freed, since
// their slots will be reused. Release drops the cache together with
// the unique table and the mark bits once a build's root is final;
// only the node arena stays, for the read-only accessors.
//
// # N-ary apply
//
// And and Or take any number of operands and reduce them in balanced
// rounds of pairwise ITEs, pairing adjacent operands in the caller's
// order; an odd operand out leads the next round. Normalization keeps
// that order: it drops neutral terminals, returns the dominant one on
// a dominant operand or a complementary pair, and keeps the first of
// equal operands, detecting both on a sorted scratch copy in
// O(k log k). The pairing, and so the cost, is the caller's choice:
// package compile passes a gate's fan-in shallow operands first. It
// used to follow handle order, that is arena slots, which the free
// list hands out in an order set by earlier collections.
//
// # Arena
//
// The node arena lives in pages of 2^16 slots (pageSize); slot idx is
// entry idx&pageMask of page idx>>pageBits. A page is allocated whole
// when the arena first reaches it and is never copied or moved, so
// growing the arena allocates each slot once.
//
// A slot costs its 16-byte node and nothing more while the manager
// builds. The side tables are not per slot: external references are a
// map over the few referenced nodes (package compile holds one per
// gate result still to be read), and the garbage collector marks in a
// bitset, one bit per slot. Size allocates its visited set per call.
//
// Variables are identified by their level in the fixed total order,
// 0 .. NumVars-1; mapping from named problem variables to levels is the
// caller's concern (package order computes such orders). All
// operations keep diagrams canonical: for a fixed order, equivalent
// functions are represented by the same Node.
package bdd

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"
)

// Node is a handle to a BDD node owned by a Manager: an arena index in
// the high bits and a complement bit in bit 0. Handles are only
// meaningful with the Manager that produced them. The zero Node is the
// False terminal.
type Node int32

// Terminal nodes, shared by every manager. The arena stores a single
// terminal (the constant-false function); True is its complement.
const (
	False Node = 0
	True  Node = 1
)

// ErrNodeLimit is returned when an operation would grow the manager
// past its configured node limit. It reproduces the memory-exhaustion
// failures ("—" entries) of the paper under a portable budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// node is one arena slot. lo is the cofactor handle for the level
// variable at 0, hi at 1; hi is always regular (canonical form). next
// chains the unique-table bucket. A free slot has level == freeLevel
// and lo chaining the free list (as a raw arena index).
type node struct {
	level int32
	lo    Node
	hi    Node
	next  int32
}

const (
	nilIdx    = int32(-1)
	freeLevel = int32(-2)
)

// Arena pages: slot idx lives at entry idx&pageMask of page
// idx>>pageBits. A handle holds an index below 2^30, so maxPages pages
// cover every index.
const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	maxPages = 1 << (30 - pageBits)
)

// Manager owns an ROBDD arena for a fixed number of variables.
type Manager struct {
	// The page table is an array in the Manager, not a slice, so a
	// read loads the page pointer where a flat arena would load its
	// base, and needs no bounds check.
	nodes     [maxPages]*[pageSize]node // arena pages, allocated once each
	refs      map[int32]int32           // external reference counts of referenced slots
	size      int32                     // arena length: slots handed out so far
	buckets   []int32
	numVars   int32
	free      int32
	freeCount int
	live      int
	peakLive  int
	limit     int
	cache     []cacheEntry // 2-way set-associative: entries 2i, 2i+1 form one set
	cacheMask uint32       // number of sets - 1
	gcCount   int
	autoGCAt  int
	marks     []uint64 // GC mark bits, one per arena slot
	naryBuf   []Node   // operand scratch for the n-ary apply
	naryKeys  []uint64 // sorted (handle, position) scratch for its dedupe
	released  bool
	// Instrumentation totals, maintained as plain fields because
	// construction is single-threaded by contract; Stats snapshots them.
	cacheHits    int64
	cacheMisses  int64
	uniqueHits   int64
	nodesCreated int64
	tableGrowths int64
	gcFreed      int64
}

// cacheEntry is one ITE cache entry. A cached f is always a regular
// non-terminal handle, so f == 0 marks an empty entry, and a two-way
// set fills 32 bytes.
type cacheEntry struct {
	f, g, h Node
	result  Node
}

// maxCacheEntries caps the ITE cache (2^20 entries, 16 MiB). The cache
// follows the unique table's size up to this cap; past it, a larger
// cache costs more memory than its extra hits save.
const maxCacheEntries = 1 << 20

// Option configures a Manager.
type Option func(*Manager)

// WithNodeLimit bounds the number of simultaneously live stored nodes.
// When an operation would exceed it, the operation fails with
// ErrNodeLimit. A limit of 0 (the default) means unlimited.
func WithNodeLimit(n int) Option {
	return func(m *Manager) { m.limit = n }
}

// New creates a manager for numVars boolean variables at levels
// 0 .. numVars-1.
func New(numVars int, opts ...Option) *Manager {
	if numVars < 0 {
		panic(fmt.Sprintf("bdd: negative variable count %d", numVars))
	}
	m := &Manager{
		numVars: int32(numVars),
		free:    nilIdx,
		refs:    make(map[int32]int32),
	}
	// The single terminal occupies arena slot 0. Terminal level is
	// numVars so that every internal level compares below it; GC always
	// keeps it.
	m.newSlot()
	*m.slot(0) = node{level: m.numVars, next: nilIdx}
	m.live = 1
	m.peakLive = 1
	m.rehash(1 << 10)
	m.resizeCache(1 << 12)
	m.autoGCAt = 1 << 16
	for _, o := range opts {
		o(m)
	}
	return m
}

// NumVars returns the number of variables the manager was created with.
func (m *Manager) NumVars() int { return int(m.numVars) }

// Live returns the number of live (allocated, not freed) stored nodes,
// including the terminal.
func (m *Manager) Live() int { return m.live }

// PeakLive returns the high-water mark of Live since the manager was
// created or ResetPeakLive was last called: the paper's "peak number
// of ROBDD nodes".
func (m *Manager) PeakLive() int { return m.peakLive }

// ResetPeakLive returns the current peak and restarts peak tracking
// from the current live count. Callers use it to attribute the
// high-water mark to pipeline phases (compile vs convert) instead of
// one number per manager lifetime.
func (m *Manager) ResetPeakLive() int {
	p := m.peakLive
	m.peakLive = m.live
	return p
}

// NodeBound returns an exclusive upper bound on the integer value of
// every Node handle this manager has issued (including complemented
// handles). Callers use it to size handle-indexed scratch slices for
// map-free memoization of traversals.
func (m *Manager) NodeBound() int { return 2 * int(m.size) }

// Stats is a point-in-time snapshot of the manager's internal
// instrumentation: the ITE operation cache, the unique table, node
// occupancy, and garbage collection. Counting uses plain (non-atomic)
// fields on the construction path, so it is effectively free; Stats
// must be called from the constructing goroutine or after construction
// has finished.
type Stats struct {
	// Live and PeakLive are current and peak live stored-node counts
	// (including the terminal).
	Live     int
	PeakLive int
	// ArenaNodes is the arena length (live + free-listed slots).
	ArenaNodes int
	// UniqueTableBuckets is the current unique-table bucket count;
	// UniqueTableGrowths how many times it doubled.
	UniqueTableBuckets int
	UniqueTableGrowths int64
	// UniqueTableHits counts mk calls answered by an existing node;
	// NodesCreated counts fresh node allocations.
	UniqueTableHits int64
	NodesCreated    int64
	// ApplyCacheHits/Misses count ITE operation-cache lookups. The
	// cache is lossy, so Misses includes evictions.
	ApplyCacheHits   int64
	ApplyCacheMisses int64
	ApplyCacheSize   int
	// GCs counts garbage collections, GCFreed the total nodes freed.
	GCs     int
	GCFreed int64
}

// Stats returns the current instrumentation snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Live:               m.live,
		PeakLive:           m.peakLive,
		ArenaNodes:         int(m.size),
		UniqueTableBuckets: len(m.buckets),
		UniqueTableGrowths: m.tableGrowths,
		UniqueTableHits:    m.uniqueHits,
		NodesCreated:       m.nodesCreated,
		ApplyCacheHits:     m.cacheHits,
		ApplyCacheMisses:   m.cacheMisses,
		ApplyCacheSize:     len(m.cache),
		GCs:                m.gcCount,
		GCFreed:            m.gcFreed,
	}
}

// slot returns the arena slot at index idx.
func (m *Manager) slot(idx int32) *node {
	return &m.nodes[uint32(idx)>>pageBits&(maxPages-1)][idx&pageMask]
}

// nodeOf returns the arena slot that handle n names.
func (m *Manager) nodeOf(n Node) *node { return m.slot(int32(n >> 1)) }

// newSlot appends a slot to the arena, allocating the next page when
// the arena fills the last one, and returns its index. The slot's
// contents are whatever the page holds; the caller fills them in.
func (m *Manager) newSlot() int32 {
	idx := m.size
	if idx&pageMask == 0 {
		m.nodes[idx>>pageBits] = new([pageSize]node)
	}
	m.size++
	return idx
}

// rehash rebuilds the unique table with n buckets, reusing the bucket
// array when its size does not change (as after a GC).
func (m *Manager) rehash(n int) {
	if len(m.buckets) != n {
		m.buckets = make([]int32, n)
	}
	for i := range m.buckets {
		m.buckets[i] = nilIdx
	}
	for i := int32(1); i < m.size; i++ {
		nd := m.slot(i)
		if nd.level == freeLevel {
			continue
		}
		b := m.bucketOf(nd.level, nd.lo, nd.hi)
		nd.next = m.buckets[b]
		m.buckets[b] = i
	}
}

// growTable doubles the unique table, and the ITE cache with it up to
// maxCacheEntries.
func (m *Manager) growTable() {
	m.tableGrowths++
	m.rehash(len(m.buckets) * 2)
	if n := min(len(m.buckets), maxCacheEntries); len(m.cache) < n {
		m.resizeCache(n)
	}
}

// resizeCache grows the ITE cache to n entries (n/2 two-way sets) and
// rehashes the old entries into it. A new set's index, masked down to
// the old size, names the one old set all of its entries come from, so
// no entry is lost; a primary entry stays primary.
func (m *Manager) resizeCache(n int) {
	old := m.cache
	m.cache = make([]cacheEntry, n)
	m.cacheMask = uint32(n/2 - 1)
	for i := range old {
		e := &old[i]
		if e.f == 0 {
			continue
		}
		set := (mix(uint32(e.f), uint32(e.g), uint32(e.h)) & m.cacheMask) * 2
		if m.cache[set].f != 0 {
			set++
		}
		m.cache[set] = *e
	}
}

func mix(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca77 ^ c*0xc2b2ae3d
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

func (m *Manager) bucketOf(level int32, lo, hi Node) uint32 {
	return mix(uint32(level), uint32(lo), uint32(hi)) & uint32(len(m.buckets)-1)
}

// mk returns the canonical node (level, lo, hi) over child handles,
// creating it if needed. It enforces the regular-then-edge form: a
// complemented hi is pushed onto both children and the returned
// handle. It panics with errLimitPanic when
// the node limit is exceeded; the exported entry points recover that
// into ErrNodeLimit.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	var out Node
	if hi&1 != 0 {
		lo ^= 1
		hi ^= 1
		out = 1
	}
	b := m.bucketOf(level, lo, hi)
	for i := m.buckets[b]; i != nilIdx; i = m.slot(i).next {
		nd := m.slot(i)
		if nd.level == level && nd.lo == lo && nd.hi == hi {
			m.uniqueHits++
			return Node(i<<1) | out
		}
	}
	if m.limit > 0 && m.live >= m.limit {
		panic(errLimitPanic{})
	}
	var idx int32
	if m.free != nilIdx {
		idx = m.free
		m.free = int32(m.slot(idx).lo)
		m.freeCount--
	} else {
		idx = m.newSlot()
		// The placeholder is marked free so that a rehash below leaves
		// it out of every chain until it is filled in.
		m.slot(idx).level = freeLevel
		if int(m.size) > len(m.buckets) {
			m.growTable()
			b = m.bucketOf(level, lo, hi)
		}
	}
	*m.slot(idx) = node{level: level, lo: lo, hi: hi, next: m.buckets[b]}
	m.buckets[b] = idx
	m.nodesCreated++
	m.live++
	if m.live > m.peakLive {
		m.peakLive = m.live
	}
	return Node(idx<<1) | out
}

type errLimitPanic struct{}

// guard converts the internal node-limit panic into ErrNodeLimit.
func (m *Manager) guard(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(errLimitPanic); ok {
			*err = ErrNodeLimit
			return
		}
		panic(r)
	}
}

// Var returns the function of the single variable at the given level.
func (m *Manager) Var(level int) (Node, error) {
	m.checkBuilding()
	if level < 0 || int32(level) >= m.numVars {
		return False, fmt.Errorf("bdd: variable level %d out of range [0,%d)", level, m.numVars)
	}
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.mk(int32(level), False, True)
	}()
	return out, err
}

// Level returns the variable level of n, or NumVars() for terminals.
func (m *Manager) Level(n Node) int { return int(m.nodeOf(n).level) }

// Lo returns the cofactor of n with its top variable set to 0,
// resolving the handle's polarity. n must not be a terminal.
func (m *Manager) Lo(n Node) Node { return m.nodeOf(n).lo ^ (n & 1) }

// Hi returns the cofactor of n with its top variable set to 1,
// resolving the handle's polarity. n must not be a terminal.
func (m *Manager) Hi(n Node) Node { return m.nodeOf(n).hi ^ (n & 1) }

// IsTerminal reports whether n is False or True.
func (m *Manager) IsTerminal(n Node) bool { return n <= True }

// Ref adds an external reference to n, protecting it (and everything
// reachable from it) across garbage collections. References are held
// on the stored node, so a function and its complement share them. It
// returns n for chaining.
func (m *Manager) Ref(n Node) Node {
	m.checkBuilding()
	if n > True {
		m.refs[int32(n>>1)]++
	}
	return n
}

// Deref removes an external reference added by Ref.
func (m *Manager) Deref(n Node) {
	m.checkBuilding()
	if n > True {
		idx := int32(n >> 1)
		switch r := m.refs[idx]; r {
		case 0:
			panic(fmt.Sprintf("bdd: Deref of unreferenced node %d", n))
		case 1:
			delete(m.refs, idx)
		default:
			m.refs[idx] = r - 1
		}
	}
}

func (m *Manager) cofactor(n Node, level int32) (lo, hi Node) {
	nd := m.nodeOf(n)
	if nd.level == level {
		c := n & 1
		return nd.lo ^ c, nd.hi ^ c
	}
	return n, n
}

func min3(a, b, c int32) int32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// regIdx orders handles by stored node, ignoring polarity — the
// deterministic tie-break used by the ITE argument normalizations.
func regIdx(n Node) Node { return n >> 1 }

// ite computes if-then-else(f, g, h) with the standard
// Brace–Rudell–Bryant normalizations. The cache key is fully
// canonical: equivalent argument orders collapse, the
// first argument and the then-argument are regular, and the output
// complement is carried outside the cache.
func (m *Manager) ite(f, g, h Node) Node {
	// Terminal and identity simplifications.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	}
	// Replace arguments equal to f (or its complement) by constants.
	if g == f {
		g = True
	}
	if h == f {
		h = False
	}
	if g == f^1 {
		g = False
	}
	if h == f^1 {
		h = True
	}
	switch {
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if g == False && h == True {
		return f ^ 1 // O(1) negation
	}
	// Commutative normalizations: pick one representative among the
	// equivalent argument orders (compare by stored node so both
	// polarities of a pair normalize identically).
	if g == True { // f ∨ h = ITE(h, 1, f)
		if regIdx(f) > regIdx(h) {
			f, h = h, f
		}
	} else if h == False { // f ∧ g = ITE(g, f, 0)
		if regIdx(f) > regIdx(g) {
			f, g = g, f
		}
	} else if h == True { // f → g = ITE(¬g, ¬f, 1)
		if regIdx(f) > regIdx(g) {
			f, g = g^1, f^1
		}
	} else if g == False { // ¬f ∧ h = ITE(¬h, 0, ¬f)
		if regIdx(f) > regIdx(h) {
			f, h = h^1, f^1
		}
	} else if g == h^1 { // f ≡ g = ITE(g, f, ¬f)
		if regIdx(f) > regIdx(g) {
			f, g = g, f
			h = g ^ 1
		}
	}
	// Canonical polarity: regular first argument, regular then-argument;
	// the output complement rides on the result.
	var out Node
	if f&1 != 0 {
		f ^= 1
		g, h = h, g
	}
	if g&1 != 0 {
		g ^= 1
		h ^= 1
		out = 1
	}
	set := (mix(uint32(f), uint32(g), uint32(h)) & m.cacheMask) * 2
	s0, s1 := &m.cache[set], &m.cache[set+1]
	if s0.f == f && s0.g == g && s0.h == h {
		m.cacheHits++
		return s0.result ^ out
	}
	if s1.f == f && s1.g == g && s1.h == h {
		m.cacheHits++
		// Promote the hit to the primary way.
		*s0, *s1 = *s1, *s0
		return s0.result ^ out
	}
	m.cacheMisses++
	top := min3(m.nodeOf(f).level, m.nodeOf(g).level, m.nodeOf(h).level)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	r := m.mk(top, lo, hi)
	// Insert into the primary way, demoting its previous occupant. If
	// the recursion grew the cache, s0 and s1 point into the old array
	// and this one entry is lost, which costs at most a recomputation.
	if s0.f != 0 {
		*s1 = *s0
	}
	*s0 = cacheEntry{f: f, g: g, h: h, result: r}
	return r ^ out
}

// ITE returns if-then-else(f, g, h) = (f∧g) ∨ (¬f∧h).
func (m *Manager) ITE(f, g, h Node) (Node, error) {
	m.checkBuilding()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.ite(f, g, h)
	}()
	return out, err
}

// Not returns the complement of f: a single bit flip on the handle.
func (m *Manager) Not(f Node) (Node, error) {
	return f ^ 1, nil
}

const (
	naryAnd = iota
	naryOr
)

// dropped marks an operand prepNary removes as a later duplicate; no
// handle is negative.
const dropped = Node(-1)

// prepNary normalizes an operand list for the n-ary apply in place and
// keeps the operands' order: neutral terminals drop, duplicates
// collapse onto their first occurrence, and a dominant terminal or a
// complementary pair short-circuits the whole operation. Duplicates
// and complementary pairs are found on a sorted scratch copy of
// (handle, position) keys, so detection is O(k log k) and the order of
// the survivors is the caller's. It returns the compacted list and
// ok=false when the result is already the dominant terminal.
func (m *Manager) prepNary(buf []Node, op int) ([]Node, bool) {
	neutral, dominant := Node(True), Node(False)
	if op == naryOr {
		neutral, dominant = False, True
	}
	k := 0
	for _, f := range buf {
		if f == dominant {
			return buf[:0], false
		}
		if f == neutral {
			continue
		}
		buf[k] = f
		k++
	}
	buf = buf[:k]
	if len(buf) < 2 {
		return buf, true
	}
	keys := m.naryKeys[:0]
	for i, f := range buf {
		keys = append(keys, uint64(f)<<32|uint64(i))
	}
	slices.Sort(keys)
	m.naryKeys = keys
	for i := 1; i < len(keys); i++ {
		prev, cur := Node(keys[i-1]>>32), Node(keys[i]>>32)
		if cur == prev {
			// Equal handles sort by position: this one is a later copy.
			buf[uint32(keys[i])] = dropped
		} else if cur == prev^1 {
			// Sorted handles place a function next to its complement.
			return buf[:0], false // x ∧ ¬x = 0,  x ∨ ¬x = 1
		}
	}
	return slices.DeleteFunc(buf, func(f Node) bool { return f == dropped }), true
}

// applyNary conjoins (or disjoins) the operands by balanced pairwise
// reduction through the ITE cache, renormalizing between rounds and
// terminating early as soon as the dominant terminal appears. Each
// round pairs adjacent operands in the caller's order; an odd operand
// out leads the next round, so it meets the first pair's result
// instead of waiting for the last round. Compared with a left fold
// this keeps intermediate results shallow (log-depth) and lets
// absorbed or duplicate partial products collapse between rounds — the
// n-ary apply used for wide gate fan-ins. The pairing, and so the
// work, depends only on the operand order: never on arena slots, which
// the free list hands out in an order set by earlier collections.
func (m *Manager) applyNary(fs []Node, op int) Node {
	neutral, dominant := Node(True), Node(False)
	if op == naryOr {
		neutral, dominant = False, True
	}
	buf := m.naryBuf[:0]
	buf = append(buf, fs...)
	var ok bool
	for {
		if buf, ok = m.prepNary(buf, op); !ok {
			m.naryBuf = buf
			return dominant
		}
		switch len(buf) {
		case 0:
			m.naryBuf = buf
			return neutral
		case 1:
			r := buf[0]
			m.naryBuf = buf
			return r
		}
		// Results fill the list from slot k on; pair i writes no later
		// than slot i+1, which it has already read. The odd operand
		// out takes slot 0 once the round is done.
		k, odd := 0, len(buf)%2 == 1
		var last Node
		if odd {
			last = buf[len(buf)-1]
			k = 1
		}
		for i := 0; i+1 < len(buf); i += 2 {
			var r Node
			if op == naryAnd {
				r = m.ite(buf[i], buf[i+1], False)
			} else {
				r = m.ite(buf[i], True, buf[i+1])
			}
			if r == dominant {
				m.naryBuf = buf[:0]
				return dominant
			}
			buf[k] = r
			k++
		}
		if odd {
			buf[0] = last
		}
		buf = buf[:k]
	}
}

// And returns the conjunction of the arguments (True when empty) via
// the n-ary apply.
func (m *Manager) And(fs ...Node) (Node, error) {
	m.checkBuilding()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.applyNary(fs, naryAnd)
	}()
	if err != nil {
		return False, err
	}
	return out, nil
}

// Or returns the disjunction of the arguments (False when empty) via
// the n-ary apply.
func (m *Manager) Or(fs ...Node) (Node, error) {
	m.checkBuilding()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.applyNary(fs, naryOr)
	}()
	if err != nil {
		return False, err
	}
	return out, nil
}

// Xor returns the exclusive-or of f and g.
func (m *Manager) Xor(f, g Node) (Node, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.ITE(f, ng, g)
}

// Eval evaluates f under the assignment (assign[level] is the value of
// the variable at that level; missing trailing levels read as false).
func (m *Manager) Eval(f Node, assign []bool) bool {
	for !m.IsTerminal(f) {
		c := f & 1
		nd := m.nodeOf(f)
		if int(nd.level) < len(assign) && assign[nd.level] {
			f = nd.hi ^ c
		} else {
			f = nd.lo ^ c
		}
	}
	return f == True
}

// bitset is a set of arena slots, one bit per slot.
type bitset []uint64

// newBitset returns an empty set over the manager's arena.
func (m *Manager) newBitset() bitset { return make(bitset, (m.size+63)/64) }

// add inserts idx and reports whether it was absent.
func (b bitset) add(idx int32) bool {
	w, bit := idx/64, uint64(1)<<(idx%64)
	if b[w]&bit != 0 {
		return false
	}
	b[w] |= bit
	return true
}

// has reports whether idx is in the set.
func (b bitset) has(idx int32) bool { return b[idx/64]&(1<<(idx%64)) != 0 }

// Size returns the number of stored nodes in the diagram rooted at f,
// including the terminal when it is reached. A function and its
// complement share all nodes, so Size(f) == Size(¬f). The visited set
// is allocated per call.
func (m *Manager) Size(f Node) int { return m.sizeRec(int32(f>>1), m.newBitset()) }

func (m *Manager) sizeRec(idx int32, seen bitset) int {
	if !seen.add(idx) {
		return 0
	}
	if idx == 0 {
		return 1
	}
	nd := m.slot(idx)
	return 1 + m.sizeRec(int32(nd.lo>>1), seen) + m.sizeRec(int32(nd.hi>>1), seen)
}

// GC reclaims every node not reachable from an externally referenced
// node. It returns the number of nodes freed. Operation-cache entries
// that name a freed node are dropped; the rest are kept. GC is also
// run automatically when the arena grows large; nodes held only by
// in-flight operations are never collected because operations do not
// trigger GC internally.
func (m *Manager) GC() int {
	m.checkBuilding()
	// The mark bits are kept between collections and cleared here.
	if n := int(m.size+63) / 64; cap(m.marks) < n {
		m.marks = make([]uint64, n)
	} else {
		m.marks = m.marks[:n]
		clear(m.marks)
	}
	marked := bitset(m.marks)
	// Mark phase: roots are the referenced nodes and the terminal. The
	// marked set does not depend on the order roots are visited in.
	marked.add(0)
	for idx := range m.refs {
		m.markRec(idx, marked)
	}
	// Sweep phase.
	freed := 0
	for i := int32(1); i < m.size; i++ {
		nd := m.slot(i)
		if nd.level == freeLevel || marked.has(i) {
			continue
		}
		*nd = node{level: freeLevel, lo: Node(m.free), next: nilIdx}
		m.free = i
		m.freeCount++
		freed++
	}
	if freed > 0 {
		m.live -= freed
		m.gcFreed += int64(freed)
		m.rehash(len(m.buckets))
		// A freed slot is reused for other nodes, so an entry naming
		// one could answer wrongly; entries over survivors stay valid.
		for i := range m.cache {
			e := &m.cache[i]
			if e.f != 0 && (!marked.has(int32(e.f>>1)) || !marked.has(int32(e.g>>1)) ||
				!marked.has(int32(e.h>>1)) || !marked.has(int32(e.result>>1))) {
				*e = cacheEntry{}
			}
		}
	}
	m.gcCount++
	return freed
}

func (m *Manager) markRec(idx int32, marked bitset) {
	if !marked.add(idx) {
		return
	}
	nd := m.slot(idx)
	m.markRec(int32(nd.lo>>1), marked)
	m.markRec(int32(nd.hi>>1), marked)
}

// MaybeGC runs GC if the arena has grown substantially since the last
// collection. It is intended to be called at safe points (between
// top-level operations, e.g. after compiling each gate).
func (m *Manager) MaybeGC() int {
	m.checkBuilding()
	if m.live < m.autoGCAt {
		return 0
	}
	freed := m.GC()
	// Back off: grow the threshold so GC amortizes, but collect again
	// soon if most of the arena stayed live.
	if m.live*2 > m.autoGCAt {
		m.autoGCAt = m.live * 2
	}
	return freed
}

// Release drops every table the manager needs only to build diagrams:
// the operation cache, the unique table, the references, the mark bits
// and the n-ary scratch. What stays is the node arena, so the read-only
// accessors (Level, Lo, Hi, IsTerminal, Eval, NodeBound, Size, ...)
// keep working on the finished diagrams; Stats reports the released
// tables as empty. Any call that could create or collect nodes panics
// afterwards. A build calls Release once its root is final, before
// converting, so the conversion does not carry the build's tables.
//
// Release returns the bytes the dropped arrays held (the reference
// map, a few entries, is not counted). They stay in the Go heap as
// garbage until the runtime's next collection ends, so a caller about
// to allocate can weigh them against the rest of the heap and collect
// first.
func (m *Manager) Release() int {
	dropped := sliceBytes(m.cache) + sliceBytes(m.buckets) + sliceBytes(m.marks) +
		sliceBytes(m.naryBuf) + sliceBytes(m.naryKeys)
	m.cache, m.buckets, m.refs, m.marks = nil, nil, nil, nil
	m.naryBuf, m.naryKeys = nil, nil
	m.released = true
	return dropped
}

// sliceBytes returns the bytes of s's backing array.
func sliceBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// checkBuilding panics when the manager has been released.
func (m *Manager) checkBuilding() {
	if m.released {
		panic("bdd: manager used to build or collect nodes after Release")
	}
}
