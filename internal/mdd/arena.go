package mdd

import (
	"fmt"
	"unsafe"
)

// MaxDomain is the largest domain a level may have. A node stores, for
// each value, the index of its child among the node's distinct
// children: in one byte when every domain has at most 256 values, in
// two bytes up to MaxDomain.
const MaxDomain = 1 << 16

// narrowDomain is the largest domain whose slot indices fit a byte.
const narrowDomain = 1 << 8

// slot is the type of one slot-map entry.
type slot interface{ ~uint8 | ~uint16 }

// Distinct children live in pages that are never copied: page p holds
// the offsets [p<<kidPageBits, (p+1)<<kidPageBits), though it may be
// allocated smaller. A manager's first page has firstKidPage entries and
// each next one twice the last, up to kidPageSize.
const (
	kidPageBits  = 16
	kidPageSize  = 1 << kidPageBits
	kidPageMask  = kidPageSize - 1
	firstKidPage = 1 << 10
)

// arena is the node storage Manager and Frozen share, the paper's
// "edges labeled by subsets of values". Node i ≥ 2 sits at level
// levels[i]. Its distinct children, in the order of the first value
// leading to each, end at offset kidEnd[i] of the paged array kids and
// start where node i-1's end, unless that is on an earlier page: a list
// never straddles two pages, and one that does not fit the rest of a
// page starts the next (see distinct). Value v leads to the child at
// index slots[slotOff[i]+v] of the list. The slot maps are uint8
// (slots8) when every domain has at most 256 values and uint16
// (slots16, with wide set) otherwise; the other array stays empty. The
// terminals 0 (False) and 1 (True) have level len(domains), no
// children and no slot map.
//
// Every array is append-only and no page moves: a node's entries are
// never rewritten, which is what lets Freeze adopt a manager's arrays.
// Growing the children by pages, rather than by reallocation, leaves
// no copies behind as garbage while a conversion runs.
type arena struct {
	domains []int32
	levels  []int32
	kidEnd  []int32
	slotOff []int32
	kids    [][]int32
	slots8  []uint8
	slots16 []uint16
	wide    bool
}

// newArena returns an arena holding only the two terminals.
func newArena(domains []int32) arena {
	nv := int32(len(domains))
	a := arena{
		domains: domains,
		levels:  []int32{nv, nv},
		kidEnd:  []int32{0, 0},
		slotOff: []int32{0, 0},
	}
	for _, d := range domains {
		if d > narrowDomain {
			a.wide = true
		}
	}
	return a
}

// distinct returns the distinct children of internal node i.
func (a *arena) distinct(i int) []int32 {
	start, end := a.kidEnd[i-1], a.kidEnd[i]-1 // end: the last child
	p := end >> kidPageBits
	if start>>kidPageBits != p {
		start = 0
	}
	return a.kids[p][start&kidPageMask : end&kidPageMask+1]
}

// appendDistinct appends the distinct children of a new last node. A
// list that does not fit the last page starts a new one of size entries
// (or of the list's length, if longer).
func (a *arena) appendDistinct(dk []int32, size int) {
	p := len(a.kids) - 1
	if p < 0 || len(a.kids[p])+len(dk) > cap(a.kids[p]) {
		a.kids = append(a.kids, make([]int32, 0, min(max(size, len(dk)), kidPageSize)))
		p++
	}
	a.kids[p] = append(a.kids[p], dk...)
	a.kidEnd = append(a.kidEnd, int32(p<<kidPageBits+len(a.kids[p])))
}

// nextKidPage returns the size of the page a manager adds next.
func (a *arena) nextKidPage() int {
	if len(a.kids) == 0 {
		return firstKidPage
	}
	return 2 * cap(a.kids[len(a.kids)-1])
}

// slotOf returns the index among node i's distinct children of the
// child value v leads to.
func (a *arena) slotOf(i, v int) int {
	if a.wide {
		return int(a.slots16[int(a.slotOff[i])+v])
	}
	return int(a.slots8[int(a.slotOff[i])+v])
}

// kid returns the child of internal node i for value v.
func (a *arena) kid(i, v int) int32 { return a.distinct(i)[a.slotOf(i, v)] }

// appendKids appends the children of internal node i, one per value of
// its level, to dst.
func (a *arena) appendKids(dst []int32, i int) []int32 {
	ks, off, d := a.distinct(i), int(a.slotOff[i]), int(a.domains[a.levels[i]])
	if a.wide {
		for _, s := range a.slots16[off : off+d] {
			dst = append(dst, ks[s])
		}
		return dst
	}
	for _, s := range a.slots8[off : off+d] {
		dst = append(dst, ks[s])
	}
	return dst
}

// numValues returns the slot-map entries of all nodes: the sum of the
// internal nodes' domain sizes.
func (a *arena) numValues() int { return len(a.slots8) + len(a.slots16) }

// bytes returns the bytes of the arena's backing arrays.
func (a *arena) bytes() int {
	n := sliceBytes(a.domains) + sliceBytes(a.levels) + sliceBytes(a.kidEnd) + sliceBytes(a.slotOff) +
		sliceBytes(a.kids) + sliceBytes(a.slots8) + sliceBytes(a.slots16)
	for _, pg := range a.kids {
		n += sliceBytes(pg)
	}
	return n
}

// sliceBytes returns the bytes of s's backing array.
func sliceBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// compactKids appends the distinct children of kids, in the order of
// their first value, to the empty dk and writes the index of every
// value's child among them to sl, which has one entry per value. It
// reports false, leaving pos dirty, at the first child outside [0, n).
// pos is scratch with an entry for every index below n, zero on entry
// and on return; it holds a child's index plus one while the node is
// compacted, so a value costs O(1) whatever the number of distinct
// children. (Skipping the lookup within a run of equal children was
// slower, on ESEN8x2's long runs too: the extra branch mispredicts
// more than the lookup costs.)
func compactKids[K ~int32, S slot](kids []K, n int, pos, dk []int32, sl []S) ([]int32, bool) {
	sl = sl[:len(kids)]
	for v, k := range kids {
		if uint(k) >= uint(n) {
			return dk, false
		}
		j := pos[k]
		if j == 0 {
			dk = append(dk, int32(k))
			j = int32(len(dk))
			pos[k] = j
		}
		sl[v] = S(j - 1)
	}
	for _, k := range dk {
		pos[k] = 0
	}
	return dk, true
}

// check validates the invariants every pass over a compact arena
// relies on, beyond the domains and levels FrozenFromData checks first:
// every node's child list is non-empty and lies within its page, the
// slot maps tile their array in node order, children strictly precede
// their parent and sit at strictly deeper levels, and every slot index
// names one of the node's distinct children.
func (a *arena) check() error {
	if len(a.kidEnd) != len(a.levels) || len(a.slotOff) != len(a.levels) {
		return fmt.Errorf("mdd: frozen data: %d nodes but %d child ends and %d slot offsets", len(a.levels), len(a.kidEnd), len(a.slotOff))
	}
	if a.kidEnd[0] != 0 || a.kidEnd[1] != 0 {
		return fmt.Errorf("mdd: frozen data: terminals have children")
	}
	off := 0
	for i := 2; i < len(a.levels); i++ {
		last := a.kidEnd[i] - 1
		if p := int(last >> kidPageBits); last < a.kidEnd[i-1] || p >= len(a.kids) || int(last&kidPageMask) >= len(a.kids[p]) {
			return fmt.Errorf("mdd: frozen data: node %d children end at %d, after %d", i, a.kidEnd[i], a.kidEnd[i-1])
		}
		if int(a.slotOff[i]) != off {
			return fmt.Errorf("mdd: frozen data: node %d slot map at %d, want %d", i, a.slotOff[i], off)
		}
		lv := a.levels[i]
		off += int(a.domains[lv])
		if off > a.numValues() {
			return fmt.Errorf("mdd: frozen data: slot maps need %d entries, have %d", off, a.numValues())
		}
		ks := a.distinct(i)
		for _, k := range ks {
			if k < 0 || int(k) >= i {
				return fmt.Errorf("mdd: frozen data: node %d has child %d outside [0,%d)", i, k, i)
			}
			if k >= 2 && a.levels[k] <= lv {
				return fmt.Errorf("mdd: frozen data: node %d (level %d) has child %d at level %d, want deeper", i, lv, k, a.levels[k])
			}
		}
	}
	if off != a.numValues() {
		return fmt.Errorf("mdd: frozen data: slot maps hold %d entries, nodes use %d", a.numValues(), off)
	}
	if a.wide {
		return checkSlots(a, a.slots16)
	}
	return checkSlots(a, a.slots8)
}

// checkSlots checks that every slot index names one of its node's
// distinct children.
func checkSlots[S slot](a *arena, slots []S) error {
	for i := 2; i < len(a.levels); i++ {
		n, off := len(a.distinct(i)), int(a.slotOff[i])
		for v, s := range slots[off : off+int(a.domains[a.levels[i]])] {
			if int(s) >= n {
				return fmt.Errorf("mdd: frozen data: node %d value %d has slot %d, the node has %d distinct children", i, v, s, n)
			}
		}
	}
	return nil
}
