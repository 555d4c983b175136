package bdd_test

import (
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/benchmarks"
	"socyield/internal/compile"
	"socyield/internal/encode"
	"socyield/internal/order"
)

// checkReachableCanonical fails unless every stored node reachable
// from root has a regular then-edge and distinct children, and no two
// of them share a (level, lo, hi) triple.
func checkReachableCanonical(t *testing.T, m *bdd.Manager, root bdd.Node) {
	t.Helper()
	seen := make(map[bdd.Node]bool)
	triples := make(map[[3]int64]bdd.Node)
	stack := []bdd.Node{root &^ 1}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.IsTerminal(n) || seen[n] {
			continue
		}
		seen[n] = true
		lo, hi := m.Lo(n), m.Hi(n)
		if hi&1 != 0 || lo == hi {
			t.Fatalf("stored node %d (level %d, lo %d, hi %d) is not canonical", n>>1, m.Level(n), lo, hi)
		}
		key := [3]int64{int64(m.Level(n)), int64(lo), int64(hi)}
		if other, dup := triples[key]; dup {
			t.Fatalf("stored nodes %d and %d share the triple %v", other>>1, n>>1, key)
		}
		triples[key] = n
		stack = append(stack, lo&^1, hi)
	}
}

// TestCodedROBDDIsCanonicalMS6 compiles MS6's coded ROBDD at M = 6, the
// build benchmark's case, where a unique-table chain lost on growth
// once produced a duplicated node (979,396 stored nodes instead of the
// canonical 979,381).
func TestCodedROBDDIsCanonicalMS6(t *testing.T) {
	if testing.Short() {
		t.Skip("MS6 compile takes seconds")
	}
	sys, err := benchmarks.ByName("MS6")
	if err != nil {
		t.Fatal(err)
	}
	g, err := encode.BuildG(sys.FaultTree, 6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := order.Assemble(g.Netlist, g.Groups, order.MVWeight, order.BitML)
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New(g.Netlist.NumInputs())
	root, err := compile.Netlist(m, g.Netlist, plan.BinaryLevels)
	if err != nil {
		t.Fatal(err)
	}
	checkReachableCanonical(t, m, root)
	if got, want := m.Size(root), 979381; got != want {
		t.Fatalf("coded ROBDD has %d nodes, want %d", got, want)
	}
}
