package bdd

import (
	"slices"
	"testing"
	"time"
)

// naryOperands builds k operands over n variables, each a sum (for a
// wide And) or a product (for a wide Or) of three literals, chosen by a
// deterministic LCG.
func naryOperands(t *testing.T, m *Manager, n, k int, sums bool) []Node {
	t.Helper()
	seed := uint64(0x2545f4914f6cdd1d)
	next := func(bound int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(bound))
	}
	ops := make([]Node, k)
	for i := range ops {
		lits := make([]Node, 3)
		for j := range lits {
			lits[j] = mustVar(t, m, next(n)) ^ Node(next(2))
		}
		var err error
		if sums {
			ops[i], err = m.Or(lits...)
		} else {
			ops[i], err = m.And(lits...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return ops
}

// handleOrder returns the positions of ops sorted by handle.
func handleOrder(ops []Node) []int {
	pos := make([]int, len(ops))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int { return int(ops[a]) - int(ops[b]) })
	return pos
}

// TestNaryPairingIgnoresSlotNumbers builds the same operands in two
// managers. In the second, a collection of interleaved garbage leaves
// the free list to hand the operands their arena slots in another
// order. The n-ary apply must do the same work in both: it pairs
// operands in the order given, not by handle.
func TestNaryPairingIgnoresSlotNumbers(t *testing.T) {
	const n, k = 24, 7
	for _, c := range []struct {
		name string
		sums bool
		op   func(m *Manager, ops []Node) (Node, error)
	}{
		{"And", true, func(m *Manager, ops []Node) (Node, error) { return m.And(ops...) }},
		{"Or", false, func(m *Manager, ops []Node) (Node, error) { return m.Or(ops...) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			type work struct{ created, peak int64 }
			run := func(scramble bool) ([]Node, work) {
				m := New(n)
				if scramble {
					// Interleave kept and garbage nodes, then free the
					// garbage: its slots, not fresh ones, take the
					// operands' nodes.
					var keep []Node
					for v := range n {
						x := mustVar(t, m, v)
						m.Ref(x)
						keep = append(keep, x)
					}
					for i := 0; i+2 < n; i++ {
						g, err := m.And(keep[i], keep[i+1]^1, keep[i+2])
						if err != nil {
							t.Fatal(err)
						}
						if i%2 == 0 {
							keep = append(keep, m.Ref(g))
						}
					}
					if m.GC() == 0 {
						t.Fatal("scramble freed nothing")
					}
				}
				ops := naryOperands(t, m, n, k, c.sums)
				before := m.Stats()
				m.ResetPeakLive()
				if _, err := c.op(m, ops); err != nil {
					t.Fatal(err)
				}
				after := m.Stats()
				return ops, work{after.NodesCreated - before.NodesCreated, int64(after.PeakLive - before.Live)}
			}
			fresh, want := run(false)
			scrambled, got := run(true)
			if slices.Equal(handleOrder(fresh), handleOrder(scrambled)) {
				t.Fatalf("scramble left the handle order alone: %v and %v", fresh, scrambled)
			}
			if got != want {
				t.Errorf("%s on scrambled slots: %+v, on fresh slots: %+v", c.name, got, want)
			}
		})
	}
}

// TestNaryHostileFanin runs the n-ary apply over 2^18 operands, about
// as wide as a 1 MiB ftdsl body can make a gate, full of duplicates. Dedupe is
// O(k log k); a quadratic one would take minutes here.
func TestNaryHostileFanin(t *testing.T) {
	const n, k = 512, 1 << 18
	m := New(n)
	vars := make([]Node, n)
	for v := range vars {
		vars[v] = mustVar(t, m, v)
	}
	// The middle cycles through x1..x511; x0 and ¬x0 sit at the two
	// ends, one of them only in the complementary cases.
	wide := func(first, last Node) []Node {
		ops := make([]Node, k)
		for i := range ops {
			ops[i] = vars[1+i%(n-1)]
		}
		ops[0], ops[k-1] = first, last
		return ops
	}
	conj, err := m.And(vars[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	x0 := vars[0]
	andX0, _ := m.And(x0, conj)
	for _, c := range []struct {
		name string
		op   func(ops ...Node) (Node, error)
		ops  []Node
		want Node
	}{
		{"And(x0,…,¬x0)", m.And, wide(x0, x0^1), False},
		{"Or(¬x0,…,x0)", m.Or, wide(x0^1, x0), True},
		{"And(x0,…,x0)", m.And, wide(x0, x0), andX0},
		{"And(x1,…,x1)", m.And, wide(vars[1], vars[1]), conj},
	} {
		start := time.Now()
		got, err := c.op(c.ops...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s over %d operands took %v", c.name, k, d)
		}
	}
}
