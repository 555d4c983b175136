package convert

import (
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/mdd"
)

// TestComplementEntryHandlesConvertApart checks that the two
// polarities of one BDD node, both entry handles of the next layer,
// keep memo slots of their own and convert to distinct ROMDD nodes.
// The coded ROBDD is x0 XNOR y0 over two one-bit MV variables: the
// root's lo child is ¬y0 and its hi child y0, one stored node.
func TestComplementEntryHandlesConvertApart(t *testing.T) {
	spec := Spec{LevelGroup: []int{0, 1}, LevelBit: []uint{0, 0}, Domains: []int{2, 2}}
	bm := bdd.New(2)
	x, err := bm.Var(0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := bm.Var(1)
	if err != nil {
		t.Fatal(err)
	}
	ny, err := bm.Not(y)
	if err != nil {
		t.Fatal(err)
	}
	root, err := bm.ITE(x, y, ny)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := bm.Lo(root), bm.Hi(root)
	if lo>>1 != hi>>1 || lo == hi {
		t.Fatalf("root's children %d and %d are not the two polarities of one node", lo, hi)
	}

	c := newConverter(bm, &spec, nil, nil)
	if entries, _ := c.size(root); entries != 3 {
		t.Fatalf("sized %d entry handles, want 3 (root, y0, ¬y0)", entries)
	}
	if c.slot(lo) == c.slot(hi) {
		t.Fatalf("both polarities share memo slot %d", c.slot(lo))
	}

	mm := mdd.MustNew(spec.Domains)
	mroot, err := ToMDD(bm, root, mm, spec)
	if err != nil {
		t.Fatal(err)
	}
	mlo, mhi := mm.Kid(mroot, 0), mm.Kid(mroot, 1)
	if mlo == mhi {
		t.Fatalf("¬y0 and y0 converted to the same ROMDD node %d", mlo)
	}
	for v := range 2 {
		for w := range 2 {
			got, err := mm.Eval(mroot, []int{v, w})
			if err != nil {
				t.Fatal(err)
			}
			if want := v == w; got != want {
				t.Errorf("ROMDD(%d, %d) = %v, want %v", v, w, got, want)
			}
		}
	}
}

// checkMemoRanks checks that the memo holds exactly the sizing walk's
// entry count and that the ranks number the entry handles 0, 1, ... in
// handle order.
func checkMemoRanks(t *testing.T, label string, c *converter, entries int64) {
	t.Helper()
	if int64(len(c.memo)) != entries {
		t.Errorf("%s: memo has %d slots, the sizing walk counted %d entry handles", label, len(c.memo), entries)
	}
	next := 0
	for n := bdd.Node(0); int(n) < c.bm.NodeBound(); n++ {
		if c.entry[n/64]&(1<<(n%64)) == 0 {
			continue
		}
		if s := c.slot(n); s != next {
			t.Fatalf("%s: entry handle %d has slot %d, want %d", label, n, s, next)
		}
		next++
	}
	if int64(next) != entries {
		t.Errorf("%s: %d entry bits set, %d entry handles counted", label, next, entries)
	}
}
