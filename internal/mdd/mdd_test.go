package mdd

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{3, 1}); err == nil {
		t.Error("domain of size 1 accepted")
	}
	if _, err := New([]int{3, MaxDomain + 1}); err == nil {
		t.Errorf("domain of size %d accepted", MaxDomain+1)
	}
	if _, err := New([]int{3, MaxDomain}); err != nil {
		t.Errorf("domain of size %d: %v", MaxDomain, err)
	}
	m, err := New([]int{3, 2, 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.NumVars() != 3 {
		t.Errorf("NumVars = %d, want 3", m.NumVars())
	}
	if m.Domain(2) != 4 {
		t.Errorf("Domain(2) = %d, want 4", m.Domain(2))
	}
	if m.NumNodes() != 2 {
		t.Errorf("fresh manager NumNodes = %d, want 2 terminals", m.NumNodes())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad domains did not panic")
		}
	}()
	MustNew([]int{0})
}

func TestMkNodeReduction(t *testing.T) {
	m := MustNew([]int{3, 3})
	// All children equal → reduced away.
	n, err := m.MkNode(0, []Node{True, True, True})
	if err != nil {
		t.Fatalf("MkNode: %v", err)
	}
	if n != True {
		t.Errorf("redundant node not reduced: got %d", n)
	}
	// Distinct children → real node, canonical on re-creation.
	a, err := m.MkNode(1, []Node{False, True, False})
	if err != nil {
		t.Fatalf("MkNode: %v", err)
	}
	b, _ := m.MkNode(1, []Node{False, True, False})
	if a != b {
		t.Error("identical nodes not shared")
	}
	c, _ := m.MkNode(1, []Node{False, False, True})
	if c == a {
		t.Error("different nodes aliased")
	}
}

func TestMkNodeValidation(t *testing.T) {
	m := MustNew([]int{3, 3})
	if _, err := m.MkNode(5, []Node{False, True, False}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := m.MkNode(0, []Node{False, True}); err == nil {
		t.Error("wrong child count accepted")
	}
	if _, err := m.MkNode(0, []Node{False, True, Node(99)}); err == nil {
		t.Error("dangling child handle accepted")
	}
	// Ordering violation: child at level 0 under parent at level 1.
	low, err := m.MkNode(0, []Node{False, True, False})
	if err != nil {
		t.Fatalf("MkNode: %v", err)
	}
	if _, err := m.MkNode(1, []Node{low, False, False}); err == nil {
		t.Error("ordering violation accepted")
	}
}

func TestLiterals(t *testing.T) {
	m := MustNew([]int{4, 3})
	eq2, err := m.LiteralEq(0, 2)
	if err != nil {
		t.Fatalf("LiteralEq: %v", err)
	}
	for v := 0; v < 4; v++ {
		got, err := m.Eval(eq2, []int{v, 0})
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		if got != (v == 2) {
			t.Errorf("[x0==2](%d) = %v", v, got)
		}
	}
	ge1, err := m.LiteralGeq(1, 1)
	if err != nil {
		t.Fatalf("LiteralGeq: %v", err)
	}
	for v := 0; v < 3; v++ {
		got, _ := m.Eval(ge1, []int{0, v})
		if got != (v >= 1) {
			t.Errorf("[x1>=1](%d) = %v", v, got)
		}
	}
	// Geq(0) is the constant true.
	geAll, _ := m.LiteralGeq(0, 0)
	if geAll != True {
		t.Errorf("LiteralGeq(level,0) = %d, want True", geAll)
	}
	if _, err := m.LiteralEq(0, 7); err == nil {
		t.Error("LiteralEq with out-of-domain value accepted")
	}
	if _, err := m.LiteralGeq(9, 0); err == nil {
		t.Error("LiteralGeq with bad level accepted")
	}
}

func TestBooleanOps(t *testing.T) {
	m := MustNew([]int{3, 3})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralGeq(1, 2)
	and, err := m.And(a, b)
	if err != nil {
		t.Fatalf("And: %v", err)
	}
	or, err := m.Or(a, b)
	if err != nil {
		t.Fatalf("Or: %v", err)
	}
	xor, err := m.Xor(a, b)
	if err != nil {
		t.Fatalf("Xor: %v", err)
	}
	na, err := m.Not(a)
	if err != nil {
		t.Fatalf("Not: %v", err)
	}
	for v0 := 0; v0 < 3; v0++ {
		for v1 := 0; v1 < 3; v1++ {
			assign := []int{v0, v1}
			va, vb := v0 == 1, v1 >= 2
			if got, _ := m.Eval(and, assign); got != (va && vb) {
				t.Errorf("and(%d,%d) = %v", v0, v1, got)
			}
			if got, _ := m.Eval(or, assign); got != (va || vb) {
				t.Errorf("or(%d,%d) = %v", v0, v1, got)
			}
			if got, _ := m.Eval(xor, assign); got != (va != vb) {
				t.Errorf("xor(%d,%d) = %v", v0, v1, got)
			}
			if got, _ := m.Eval(na, assign); got != !va {
				t.Errorf("not(%d) = %v", v0, got)
			}
		}
	}
	// Variadic identities.
	if r, _ := m.And(); r != True {
		t.Error("And() != True")
	}
	if r, _ := m.Or(); r != False {
		t.Error("Or() != False")
	}
}

func TestCanonicityAcrossConstructions(t *testing.T) {
	m := MustNew([]int{3, 4})
	a, _ := m.LiteralEq(0, 0)
	b, _ := m.LiteralEq(1, 3)
	// ¬(a ∨ b) == ¬a ∧ ¬b
	or, _ := m.Or(a, b)
	lhs, _ := m.Not(or)
	na, _ := m.Not(a)
	nb, _ := m.Not(b)
	rhs, _ := m.And(na, nb)
	if lhs != rhs {
		t.Error("De Morgan over MDDs: different nodes for equivalent functions")
	}
	// Double negation.
	nn, _ := m.Not(lhs)
	if nn != or {
		t.Error("double negation not canonical")
	}
}

func TestEvalErrors(t *testing.T) {
	m := MustNew([]int{3, 3})
	a, _ := m.LiteralEq(1, 1)
	if _, err := m.Eval(a, []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := m.Eval(a, []int{0, 9}); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

func TestSize(t *testing.T) {
	m := MustNew([]int{3, 3})
	if got := m.Size(True); got != 1 {
		t.Errorf("Size(True) = %d, want 1", got)
	}
	a, _ := m.LiteralEq(0, 1)
	// One internal node plus both terminals.
	if got := m.Size(a); got != 3 {
		t.Errorf("Size(literal) = %d, want 3", got)
	}
	b, _ := m.LiteralEq(1, 2)
	and, _ := m.And(a, b)
	// x0-node → x1-node → terminals: 4 nodes.
	if got := m.Size(and); got != 4 {
		t.Errorf("Size(and) = %d, want 4", got)
	}
}

func TestProb(t *testing.T) {
	m := MustNew([]int{3, 3})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralGeq(1, 1)
	and, _ := m.And(a, b)
	probs := [][]float64{
		{0.5, 0.3, 0.2},
		{0.1, 0.4, 0.5},
	}
	f := m.Freeze(and)
	got, err := f.Prob(probs)
	if err != nil {
		t.Fatalf("Prob: %v", err)
	}
	want := 0.3 * (0.4 + 0.5)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Prob = %v, want %v", got, want)
	}
	// Terminals.
	if p, _ := m.Freeze(True).Prob(probs); p != 1 {
		t.Errorf("Prob(True) = %v", p)
	}
	if p, _ := m.Freeze(False).Prob(probs); p != 0 {
		t.Errorf("Prob(False) = %v", p)
	}
	// Validation.
	if _, err := f.Prob([][]float64{{1}}); err == nil {
		t.Error("short probability table accepted")
	}
	if _, err := f.Prob([][]float64{{0.5, 0.5}, {0.1, 0.4, 0.5}}); err == nil {
		t.Error("wrong row width accepted")
	}
}

func TestProbSkippedVariableIntegratesOut(t *testing.T) {
	// f depends only on x1; x0's distribution must not matter as long
	// as it sums to 1 (skipped levels contribute factor 1).
	m := MustNew([]int{3, 2})
	b, _ := m.LiteralEq(1, 1)
	f := m.Freeze(b)
	p1, _ := f.Prob([][]float64{{1, 0, 0}, {0.25, 0.75}})
	p2, _ := f.Prob([][]float64{{0.2, 0.3, 0.5}, {0.25, 0.75}})
	if math.Abs(p1-0.75) > 1e-15 || math.Abs(p2-0.75) > 1e-15 {
		t.Errorf("Prob with skipped level: %v / %v, want 0.75", p1, p2)
	}
}

func TestNodeLimit(t *testing.T) {
	m := MustNew([]int{4, 4, 4, 4, 4, 4}, WithNodeLimit(6))
	var err error
	f := False
	for lv := 0; lv < 6 && err == nil; lv++ {
		var lit Node
		lit, err = m.LiteralEq(lv, 1)
		if err != nil {
			break
		}
		f, err = m.Xor(f, lit)
	}
	if err != ErrNodeLimit {
		t.Fatalf("want ErrNodeLimit, got %v", err)
	}
}

func TestDOT(t *testing.T) {
	m := MustNew([]int{3, 2})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 1)
	f, _ := m.Or(a, b)
	dot := m.DOT(f, "test", []string{"w", "v1"})
	for _, frag := range []string{"digraph", `label="w"`, `label="v1"`, "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	// Values sharing a child must be grouped on one edge label.
	if !strings.Contains(dot, `label="0,2"`) && !strings.Contains(dot, `label="0"`) {
		t.Errorf("DOT edge labels unexpected:\n%s", dot)
	}
}

func TestComputeStats(t *testing.T) {
	m := MustNew([]int{3, 3})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 2)
	and, _ := m.And(a, b)
	s := m.Freeze(and).ComputeStats()
	if s.Nodes != 4 {
		t.Errorf("Nodes = %d, want 4", s.Nodes)
	}
	if s.PerLevel[0] != 1 || s.PerLevel[1] != 1 {
		t.Errorf("PerLevel = %v, want [1 1]", s.PerLevel)
	}
	if s.MaxWidth != 1 {
		t.Errorf("MaxWidth = %d, want 1", s.MaxWidth)
	}
}

// randomMDD builds a random boolean function over MV variables both as
// an MDD and as a closure.
func randomMDD(m *Manager, rng *rand.Rand, depth int) (Node, func([]int) bool, error) {
	if depth == 0 || rng.Intn(4) == 0 {
		lv := rng.Intn(m.NumVars())
		val := rng.Intn(m.Domain(lv))
		if rng.Intn(2) == 0 {
			n, err := m.LiteralEq(lv, val)
			return n, func(a []int) bool { return a[lv] == val }, err
		}
		n, err := m.LiteralGeq(lv, val)
		return n, func(a []int) bool { return a[lv] >= val }, err
	}
	l, fl, err := randomMDD(m, rng, depth-1)
	if err != nil {
		return False, nil, err
	}
	r, fr, err := randomMDD(m, rng, depth-1)
	if err != nil {
		return False, nil, err
	}
	switch rng.Intn(4) {
	case 0:
		n, err := m.And(l, r)
		return n, func(a []int) bool { return fl(a) && fr(a) }, err
	case 1:
		n, err := m.Or(l, r)
		return n, func(a []int) bool { return fl(a) || fr(a) }, err
	case 2:
		n, err := m.Xor(l, r)
		return n, func(a []int) bool { return fl(a) != fr(a) }, err
	default:
		n, err := m.Not(l)
		return n, func(a []int) bool { return !fl(a) }, err
	}
}

func forEachAssign(domains []int, fn func([]int)) {
	assign := make([]int, len(domains))
	var rec func(int)
	rec = func(i int) {
		if i == len(domains) {
			fn(assign)
			return
		}
		for v := 0; v < domains[i]; v++ {
			assign[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// Property: MDD evaluation matches the defining closure everywhere.
func TestQuickRandomSemantics(t *testing.T) {
	domains := []int{3, 4, 2, 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(domains)
		root, eval, err := randomMDD(m, rng, 4)
		if err != nil {
			return false
		}
		ok := true
		forEachAssign(domains, func(a []int) {
			got, err := m.Eval(root, a)
			if err != nil || got != eval(a) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the frozen diagram's Prob equals the exhaustive
// expectation under any product distribution.
func TestQuickProbMatchesEnumeration(t *testing.T) {
	domains := []int{3, 2, 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(domains)
		root, eval, err := randomMDD(m, rng, 4)
		if err != nil {
			return false
		}
		probs := make([][]float64, len(domains))
		for l, d := range domains {
			row := make([]float64, d)
			sum := 0.0
			for v := range row {
				row[v] = rng.Float64() + 0.01
				sum += row[v]
			}
			for v := range row {
				row[v] /= sum
			}
			probs[l] = row
		}
		want := 0.0
		forEachAssign(domains, func(a []int) {
			if eval(a) {
				p := 1.0
				for l, v := range a {
					p *= probs[l][v]
				}
				want += p
			}
		})
		got, err := m.Freeze(root).Prob(probs)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: reduction invariant — no reachable node has all children
// equal, and no two distinct reachable nodes at the same level have
// identical child vectors.
func TestQuickReducedness(t *testing.T) {
	domains := []int{3, 3, 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(domains)
		root, _, err := randomMDD(m, rng, 5)
		if err != nil {
			return false
		}
		seen := map[Node]bool{}
		type sig struct {
			level int
			kids  string
		}
		sigs := map[sig]Node{}
		ok := true
		var walk func(Node)
		walk = func(n Node) {
			if seen[n] || m.IsTerminal(n) {
				return
			}
			seen[n] = true
			kids := m.Kids(n)
			allEq := true
			var sb strings.Builder
			for _, k := range kids {
				if k != kids[0] {
					allEq = false
				}
				sb.WriteString(string(rune(k)) + ",")
				if m.Level(k) <= m.Level(n) {
					ok = false // ordering violated
				}
			}
			if allEq {
				ok = false
			}
			key := sig{m.Level(n), sb.String()}
			if prev, dup := sigs[key]; dup && prev != n {
				ok = false
			}
			sigs[key] = n
			for _, k := range kids {
				walk(k)
			}
		}
		walk(root)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReserveKeepsNodes checks that Reserve leaves existing nodes in
// place and findable, and that nodes made afterwards are the ones an
// unreserved manager makes.
func TestReserveKeepsNodes(t *testing.T) {
	build := func(m *Manager) []Node {
		var out []Node
		for lv := 0; lv < 3; lv++ {
			a, err := m.LiteralEq(lv, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.LiteralGeq(lv, 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, a, b)
		}
		return out
	}
	plain := MustNew([]int{3, 3, 3})
	want := build(plain)
	m := MustNew([]int{3, 3, 3})
	first := build(m)
	m.Reserve(5000, 15000)
	if again := build(m); !slices.Equal(again, first) || !slices.Equal(first, want) {
		t.Errorf("after Reserve the same nodes are %v, before %v, unreserved %v", again, first, want)
	}
	if st := m.BuildStats(); st.UniqueTableHits != int64(len(want)) {
		t.Errorf("rebuilding after Reserve hit the unique table %d times, want %d", st.UniqueTableHits, len(want))
	}
}

// TestBuildGuardsNodeLimit checks that Build turns an exceeded node
// limit inside fn into ErrNodeLimit and keeps the nodes made before it.
func TestBuildGuardsNodeLimit(t *testing.T) {
	m := MustNew([]int{2, 2, 2}, WithNodeLimit(4))
	var made []Node
	err := m.Build(func(mk func(int, []Node) Node) {
		for lv := 2; lv >= 0; lv-- {
			made = append(made, mk(lv, []Node{False, True}))
		}
	})
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	if len(made) != 2 || m.NumNodes() != 4 {
		t.Errorf("made %v with %d nodes before the limit, want 2 and 4", made, m.NumNodes())
	}
	if err := MustNew([]int{2}).Build(func(mk func(int, []Node) Node) { mk(0, []Node{False, True}) }); err != nil {
		t.Errorf("Build within the limit: %v", err)
	}
}

// TestReserveRespectsNodeLimit checks that under a node limit Reserve
// grows the arena only to the nodes the limit still admits, with the
// slot maps cut in proportion, and not at all once the limit is
// reached.
func TestReserveRespectsNodeLimit(t *testing.T) {
	m := MustNew([]int{3, 3, 3}, WithNodeLimit(10))
	if _, err := m.LiteralEq(0, 1); err != nil {
		t.Fatal(err)
	}
	used := m.NumNodes()
	m.Reserve(1000, 3000)
	nodes, values := m.Capacity()
	if nodes > 10 {
		t.Errorf("node arena capacity %d after Reserve, beyond the limit 10", nodes)
	}
	if want := m.numValues() + 3000*(10-used)/1000; values > want {
		t.Errorf("slot-map capacity %d after Reserve, want at most %d", values, want)
	}
	full := MustNew([]int{2}, WithNodeLimit(2))
	nodes, values = full.Capacity()
	full.Reserve(1000, 2000)
	if n, v := full.Capacity(); n != nodes || v != values {
		t.Errorf("Reserve at the limit grew the arena from %d/%d to %d/%d", nodes, values, n, v)
	}
}
