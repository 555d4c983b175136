package bdd

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// growFunctions adds random ITE combinations of the functions in fs
// (and their complements), keeping every result referenced, until the
// unique table has grown at least growths more times.
func growFunctions(t *testing.T, m *Manager, rng *rand.Rand, fs []Node, growths int64) []Node {
	t.Helper()
	want := m.tableGrowths + growths
	pick := func() Node { return fs[rng.Intn(len(fs))] ^ Node(rng.Intn(2)) }
	for m.tableGrowths < want {
		r, err := m.ITE(pick(), pick(), pick())
		if err != nil {
			t.Fatalf("ITE: %v", err)
		}
		fs = append(fs, m.Ref(r))
	}
	return fs
}

func varsOf(t *testing.T, m *Manager) []Node {
	fs := []Node{False, True}
	for lv := 0; lv < m.NumVars(); lv++ {
		fs = append(fs, m.Ref(mustVar(t, m, lv)))
	}
	return fs
}

// truthTable evaluates f on every assignment of the manager's
// variables.
func truthTable(m *Manager, f Node) []bool {
	n := m.NumVars()
	out := make([]bool, 1<<n)
	assign := make([]bool, n)
	for a := range out {
		for lv := range assign {
			assign[lv] = a&(1<<lv) != 0
		}
		out[a] = m.Eval(f, assign)
	}
	return out
}

// checkITE fails unless r is ITE(f, g, h) pointwise.
func checkITE(t *testing.T, m *Manager, f, g, h, r Node) {
	t.Helper()
	tf, tg, th, tr := truthTable(m, f), truthTable(m, g), truthTable(m, h), truthTable(m, r)
	for a := range tr {
		want := th[a]
		if tf[a] {
			want = tg[a]
		}
		if tr[a] != want {
			t.Fatalf("ITE(%d,%d,%d) = %d is wrong at assignment %b", f, g, h, r, a)
		}
	}
}

// checkArenaCanonical fails unless every stored node is in canonical
// form, no two share a (level, lo, hi) triple, and the unique table
// chains every one of them into the bucket of its triple.
func checkArenaCanonical(t *testing.T, m *Manager) {
	t.Helper()
	seen := make(map[[3]int32]int32, m.size)
	for i := int32(1); i < m.size; i++ {
		nd := m.slot(i)
		if nd.level == freeLevel {
			continue
		}
		if nd.hi&1 != 0 || nd.lo == nd.hi {
			t.Fatalf("node %d (%d, %d, %d) is not canonical", i, nd.level, nd.lo, nd.hi)
		}
		key := [3]int32{nd.level, int32(nd.lo), int32(nd.hi)}
		if j, dup := seen[key]; dup {
			t.Fatalf("nodes %d and %d share the triple %v", j, i, key)
		}
		seen[key] = i
		found := false
		for k := m.buckets[m.bucketOf(nd.level, nd.lo, nd.hi)]; k != nilIdx; k = m.slot(k).next {
			if k == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d %v is missing from its unique-table bucket", i, key)
		}
	}
}

// TestUniqueTableKeepsEveryNodeAcrossGrowth guards the growth path of
// mk: the slot appended for the new node must not be rehashed into a
// chain before it is filled in, or the chain it lands in drops out of
// the table and later lookups create duplicates.
func TestUniqueTableKeepsEveryNodeAcrossGrowth(t *testing.T) {
	m := New(12)
	rng := rand.New(rand.NewSource(1))
	fs := varsOf(t, m)
	for range 8 {
		fs = growFunctions(t, m, rng, fs, 1)
		checkArenaCanonical(t, m)
	}
}

// TestArenaGrowthAllocatesEachSlotOnce grows a manager past four arena
// pages and checks that growth allocated each slot once: everything
// the manager allocated stays under 1.5 times the 16 bytes per slot of
// a node, plus every unique table and cache it went through (each
// doubling, so under twice the final ones). No side table grows per
// slot. An arena
// that copies itself on growth allocates several times its size. The
// test then frees slots on every full page by a collection, refills
// them, releases the build tables and checks that every slot, on
// either side of every page boundary, reads as it did before.
func TestArenaGrowthAllocatesEachSlotOnce(t *testing.T) {
	const nv = 16
	m := New(nv)
	rng := rand.New(rand.NewSource(5))
	var pool [64]Node
	for i := range pool {
		pool[i] = mustVar(t, m, i%nv)
	}
	// Random ITEs over a fixed pool of recent results; nothing is
	// referenced, so nothing is collected while the arena grows.
	grow := func(until func() bool) {
		for !until() {
			f, g, h := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			r, err := m.ITE(f, g^Node(rng.Intn(2)), h)
			if err != nil {
				t.Fatal(err)
			}
			pool[rng.Intn(len(pool))] = r
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	grow(func() bool { return m.size > 4*pageSize })
	runtime.ReadMemStats(&ms1)
	slots := uint64(m.size)
	tables := 2 * (uint64(len(m.buckets))*4 + uint64(len(m.cache))*16)
	if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, 3*slots*16/2+tables; got > limit {
		t.Fatalf("growing the arena to %d slots allocated %d bytes, over %d", slots, got, limit)
	}

	// Keep the pool, collect the rest, and refill every freed slot.
	for _, f := range pool {
		m.Ref(f)
	}
	if m.GC() == 0 {
		t.Fatal("GC freed nothing")
	}
	var freed [4]int
	for i := int32(1); i < 4*pageSize; i++ {
		if m.slot(i).level == freeLevel {
			freed[i>>pageBits]++
		}
	}
	for p, n := range freed {
		if n == 0 {
			t.Fatalf("GC freed no slot on page %d", p)
		}
	}
	grow(func() bool { return m.freeCount == 0 })
	for i := int32(1); i < m.size; i++ {
		if m.slot(i).level == freeLevel {
			t.Fatalf("slot %d on page %d is still free after the refill", i, i>>pageBits)
		}
	}
	checkArenaCanonical(t, m)

	type triple struct {
		level  int
		lo, hi Node
	}
	read := func() []triple {
		out := make([]triple, m.size)
		for i := int32(1); i < m.size; i++ {
			h := Node(i << 1)
			out[i] = triple{m.Level(h), m.Lo(h), m.Hi(h)}
		}
		return out
	}
	before := read()
	crossing := 0
	for i, tr := range before[1:] {
		if tr.level >= m.Level(tr.lo) || tr.level >= m.Level(tr.hi) {
			t.Fatalf("slot %d at level %d has a child at level %d or %d", i+1, tr.level, m.Level(tr.lo), m.Level(tr.hi))
		}
		if tr.lo>>(pageBits+1) != Node(i+1)>>pageBits || tr.hi>>(pageBits+1) != Node(i+1)>>pageBits {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no node has a child on another page")
	}
	sizes := make([]int, len(pool))
	for j, f := range pool {
		sizes[j] = m.Size(f)
	}
	m.Release()
	for i, tr := range read() {
		if tr != before[i] {
			t.Fatalf("slot %d (page %d, entry %d) reads %+v after Release, %+v before", i, i>>pageBits, i&pageMask, tr, before[i])
		}
	}
	for j, f := range pool {
		if got := m.Size(f); got != sizes[j] {
			t.Fatalf("pool function %d has %d nodes after Release, %d before", j, got, sizes[j])
		}
	}
}

// TestITECacheRehashOnGrowthIsLossless checks that growing the cache
// keeps every entry and answers every lookup it answered before.
func TestITECacheRehashOnGrowthIsLossless(t *testing.T) {
	m := New(12)
	fs := growFunctions(t, m, rand.New(rand.NewSource(2)), varsOf(t, m), 2)
	var before []cacheEntry
	for _, e := range m.cache {
		if e.f != 0 {
			before = append(before, e)
		}
	}
	if len(before) == 0 {
		t.Fatal("cache is empty")
	}
	m.resizeCache(2 * len(m.cache))
	for _, e := range before {
		set := (mix(uint32(e.f), uint32(e.g), uint32(e.h)) & m.cacheMask) * 2
		if m.cache[set] != e && m.cache[set+1] != e {
			t.Fatalf("entry %+v lost by the rehash", e)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f, g, h := fs[rng.Intn(len(fs))], fs[rng.Intn(len(fs))], fs[rng.Intn(len(fs))]
		r, err := m.ITE(f, g, h)
		if err != nil {
			t.Fatal(err)
		}
		checkITE(t, m, f, g, h, r)
	}
}

// TestITECacheAcrossGrowthAndGC keeps the cache through table growth
// and a collection: afterwards no entry names a freed node, entries
// over survivors are still there, and every ITE — including ones whose
// results land in reused slots — is correct.
func TestITECacheAcrossGrowthAndGC(t *testing.T) {
	m := New(12)
	rng := rand.New(rand.NewSource(4))
	fs := growFunctions(t, m, rng, varsOf(t, m), 3)
	if got := len(m.cache); got != len(m.buckets) {
		t.Fatalf("cache has %d entries, want the unique table's %d", got, len(m.buckets))
	}
	// Drop the younger half of the functions and collect.
	keep := fs[:len(fs)/2]
	for _, f := range fs[len(fs)/2:] {
		m.Deref(f)
	}
	if freed := m.GC(); freed == 0 {
		t.Fatal("GC freed nothing")
	}
	kept := 0
	for _, e := range m.cache {
		if e.f == 0 {
			continue
		}
		kept++
		for _, n := range []Node{e.f, e.g, e.h, e.result} {
			if m.nodeOf(n).level == freeLevel {
				t.Fatalf("cache entry %+v names freed node %d after GC", e, n>>1)
			}
		}
	}
	if kept == 0 {
		t.Fatal("GC cleared the whole cache")
	}
	checkArenaCanonical(t, m)
	// New work reuses the freed slots; the retained entries must not
	// answer for the functions now stored there.
	pick := func() Node { return keep[rng.Intn(len(keep))] ^ Node(rng.Intn(2)) }
	for i := 0; i < 2000; i++ {
		f, g, h := pick(), pick(), pick()
		r, err := m.ITE(f, g, h)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			checkITE(t, m, f, g, h, r)
		}
		keep = append(keep, m.Ref(r))
	}
	checkArenaCanonical(t, m)
}

// TestITECacheIsBounded checks that the cache follows the unique
// table up to maxCacheEntries and stops there.
func TestITECacheIsBounded(t *testing.T) {
	m := New(1)
	m.rehash(maxCacheEntries / 2)
	m.growTable()
	if len(m.cache) != maxCacheEntries {
		t.Fatalf("cache has %d entries at %d buckets, want %d", len(m.cache), len(m.buckets), maxCacheEntries)
	}
	m.growTable()
	if len(m.cache) != maxCacheEntries {
		t.Fatalf("cache has %d entries at %d buckets, want the cap %d", len(m.cache), len(m.buckets), maxCacheEntries)
	}
}

// TestReleasedManagerIsReadOnly checks that Release reports the bytes
// it drops, keeps the diagrams readable and turns every call that would build or collect into a
// clear panic.
func TestReleasedManagerIsReadOnly(t *testing.T) {
	m := New(3)
	x, y := mustVar(t, m, 0), mustVar(t, m, 1)
	f, err := m.And(x, y)
	if err != nil {
		t.Fatal(err)
	}
	size := m.Size(f)
	// Release reports every table it drops: the unique table and ITE
	// cache of New at least, the mark bits and the n-ary scratch.
	want := 4*cap(m.buckets) + 16*cap(m.cache) + 8*cap(m.marks) + 4*cap(m.naryBuf) + 8*cap(m.naryKeys)
	if got := m.Release(); got != want || want < 4<<10+16<<12 {
		t.Fatalf("Release reports %d bytes, the tables held %d", got, want)
	}
	if m.Level(f) != 0 || m.Lo(f) != False || m.Hi(f) != y || m.Size(f) != size {
		t.Fatal("released manager no longer reads its diagrams")
	}
	if !m.Eval(f, []bool{true, true}) || m.Eval(f, []bool{true, false}) {
		t.Fatal("released manager evaluates wrongly")
	}
	for name, call := range map[string]func(){
		"Var":     func() { m.Var(2) },
		"Xor":     func() { m.Xor(x, y) },
		"ITE":     func() { m.ITE(x, y, False) },
		"And":     func() { m.And(x, y) },
		"Or":      func() { m.Or(x, y) },
		"Ref":     func() { m.Ref(f) },
		"Deref":   func() { m.Deref(f) },
		"GC":      func() { m.GC() },
		"MaybeGC": func() { m.MaybeGC() },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "after Release") {
					t.Errorf("%s on a released manager: recovered %v, want a panic naming Release", name, r)
				}
			}()
			call()
		}()
	}
}
