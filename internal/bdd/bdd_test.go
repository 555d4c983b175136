package bdd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustVar(t *testing.T, m *Manager, lv int) Node {
	t.Helper()
	n, err := m.Var(lv)
	if err != nil {
		t.Fatalf("Var(%d): %v", lv, err)
	}
	return n
}

func TestTerminals(t *testing.T) {
	m := New(3)
	if !m.IsTerminal(False) || !m.IsTerminal(True) {
		t.Fatal("terminals not recognized")
	}
	if m.Level(True) != 3 || m.Level(False) != 3 {
		t.Errorf("terminal level = %d/%d, want 3", m.Level(False), m.Level(True))
	}
	if m.Eval(True, nil) != true || m.Eval(False, nil) != false {
		t.Error("terminal evaluation wrong")
	}
}

func TestVarBasics(t *testing.T) {
	m := New(3)
	x := mustVar(t, m, 1)
	if m.Level(x) != 1 {
		t.Errorf("Level = %d, want 1", m.Level(x))
	}
	if m.Lo(x) != False || m.Hi(x) != True {
		t.Errorf("Var cofactors = %d,%d; want False,True", m.Lo(x), m.Hi(x))
	}
	x2 := mustVar(t, m, 1)
	if x != x2 {
		t.Error("Var not canonical")
	}
	notx, err := m.Not(x)
	if err != nil {
		t.Fatalf("Not: %v", err)
	}
	if m.Level(notx) != 1 || m.Lo(notx) != True || m.Hi(notx) != False {
		t.Error("Not(Var(1)) is not the negated variable")
	}
	if _, err := m.Var(3); err == nil {
		t.Error("Var(3) of 3-var manager: want range error")
	}
	if _, err := m.Var(-1); err == nil {
		t.Error("Var(-1): want range error")
	}
}

func TestCanonicityOfEquivalentFormulas(t *testing.T) {
	m := New(4)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	// (a∧b)∨(a∧c) == a∧(b∨c)
	ab, _ := m.And(a, b)
	ac, _ := m.And(a, c)
	lhs, _ := m.Or(ab, ac)
	bc, _ := m.Or(b, c)
	rhs, _ := m.And(a, bc)
	if lhs != rhs {
		t.Error("distributivity: equivalent functions got different nodes")
	}
	// De Morgan.
	nab, _ := m.Not(ab)
	na, _ := m.Not(a)
	nb, _ := m.Not(b)
	naOrNb, _ := m.Or(na, nb)
	if nab != naOrNb {
		t.Error("De Morgan: equivalent functions got different nodes")
	}
	// Xor expansion.
	x1, _ := m.Xor(a, b)
	anb, _ := m.And(a, nb)
	nab2, _ := m.And(na, b)
	x2, _ := m.Or(anb, nab2)
	if x1 != x2 {
		t.Error("xor expansion: equivalent functions got different nodes")
	}
}

func TestEvalMatchesSemantics(t *testing.T) {
	m := New(3)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	ab, _ := m.And(a, b)
	f, _ := m.Or(ab, c) // a∧b ∨ c
	for mask := 0; mask < 8; mask++ {
		assign := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		want := (assign[0] && assign[1]) || assign[2]
		if got := m.Eval(f, assign); got != want {
			t.Errorf("Eval mask %03b = %v, want %v", mask, got, want)
		}
	}
}

func TestITEIdentities(t *testing.T) {
	m := New(3)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	if r, _ := m.ITE(True, a, b); r != a {
		t.Error("ITE(1,a,b) != a")
	}
	if r, _ := m.ITE(False, a, b); r != b {
		t.Error("ITE(0,a,b) != b")
	}
	if r, _ := m.ITE(a, b, b); r != b {
		t.Error("ITE(a,b,b) != b")
	}
	if r, _ := m.ITE(a, True, False); r != a {
		t.Error("ITE(a,1,0) != a")
	}
	na, _ := m.Not(a)
	if r, _ := m.ITE(a, False, True); r != na {
		t.Error("ITE(a,0,1) != ¬a")
	}
	r, _ := m.ITE(a, b, a)
	r2, _ := m.And(a, b)
	if r != r2 {
		t.Error("ITE(a,b,a) != a∧b")
	}
	r, _ = m.ITE(a, a, b)
	r2, _ = m.Or(a, b)
	if r != r2 {
		t.Error("ITE(a,a,b) != a∨b")
	}
	// The n-ary apply's normalizations: empty operand lists, a
	// complementary pair, duplicate and neutral operands.
	nb, _ := m.Not(b)
	ab, _ := m.And(a, b)
	for _, c := range []struct {
		name string
		op   func() (Node, error)
		want Node
	}{
		{"And()", func() (Node, error) { return m.And() }, True},
		{"Or()", func() (Node, error) { return m.Or() }, False},
		{"And(a,b,¬a)", func() (Node, error) { return m.And(a, b, na) }, False},
		{"Or(b,a,¬b)", func() (Node, error) { return m.Or(b, a, nb) }, True},
		{"And(a,a,b,1)", func() (Node, error) { return m.And(a, a, b, True) }, ab},
		{"Or(a,0,b,a)", func() (Node, error) { return m.Or(a, False, b, a) }, r2},
		{"Xor(a,a)", func() (Node, error) { return m.Xor(a, a) }, False},
		{"And(¬b,a,b)", func() (Node, error) { return m.And(nb, a, b) }, False},
		{"Or(b,a,1,¬b)", func() (Node, error) { return m.Or(b, a, True, nb) }, True},
		{"And(b,a,b,a)", func() (Node, error) { return m.And(b, a, b, a) }, ab},
	} {
		got, err := c.op()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	// The normalized operand list keeps the caller's order and the
	// first copy of a duplicate; nil means the dominant terminal.
	c := mustVar(t, m, 2)
	for _, tc := range []struct {
		name string
		op   int
		in   []Node
		want []Node
	}{
		{"order kept", naryAnd, []Node{c, a, b}, []Node{c, a, b}},
		{"first duplicate kept", naryAnd, []Node{b, c, b, a, c}, []Node{b, c, a}},
		{"neutral dropped", naryOr, []Node{c, False, a, False}, []Node{c, a}},
		{"complementary pair at both ends", naryAnd, []Node{na, b, c, a}, nil},
		{"complementary pair at both ends, reversed", naryOr, []Node{a, c, b, na}, nil},
		{"dominant", naryOr, []Node{c, a, True, b}, nil},
	} {
		got, ok := m.prepNary(slices.Clone(tc.in), tc.op)
		if !ok {
			got = nil
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("prepNary %s: %v → %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestSizeAndSupport(t *testing.T) {
	m := New(3)
	a, b, c := mustVar(t, m, 0), mustVar(t, m, 1), mustVar(t, m, 2)
	ab, _ := m.And(a, b)
	f, _ := m.Or(ab, c)
	// Diagram: node(a) -> node(b) -> node(c) plus the single stored
	// terminal (complement edges merge True and False) = 4 nodes.
	if got := m.Size(f); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
	if got := m.Size(True); got != 1 {
		t.Errorf("Size(True) = %d, want 1", got)
	}
}

func TestGCReclaimsUnreferenced(t *testing.T) {
	m := New(8)
	var keep Node
	{
		a, b := mustVar(t, m, 0), mustVar(t, m, 1)
		k, _ := m.And(a, b)
		keep = m.Ref(k)
	}
	// Build lots of garbage.
	for i := 0; i < 6; i++ {
		x := mustVar(t, m, i)
		y := mustVar(t, m, i+1)
		xy, _ := m.Xor(x, y)
		o, _ := m.Or(xy, keep)
		_ = o
	}
	before := m.Live()
	freed := m.GC()
	if freed == 0 {
		t.Fatal("GC freed nothing despite garbage present")
	}
	if m.Live() != before-freed {
		t.Errorf("Live = %d, want %d", m.Live(), before-freed)
	}
	// keep must have survived and still be correct.
	if !m.Eval(keep, []bool{true, true}) || m.Eval(keep, []bool{true, false}) {
		t.Error("referenced node corrupted by GC")
	}
	// Canonicity must survive GC: rebuilding a∧b finds the same node.
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	k2, _ := m.And(a, b)
	if k2 != keep {
		t.Error("unique table broken after GC: a∧b rebuilt as a different node")
	}
	m.Deref(keep)
	if g := m.Stats().GCs; g != 1 {
		t.Errorf("GCs = %d, want 1", g)
	}
}

func TestGCFreeSlotReuse(t *testing.T) {
	m := New(4)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	g, _ := m.And(a, b)
	_ = g
	live := m.Live()
	m.GC() // g is garbage (vars a,b too unless referenced — they are not)
	if m.Live() >= live {
		t.Fatalf("GC did not reduce live count: %d -> %d", live, m.Live())
	}
	// New allocations must reuse freed slots, not grow the arena.
	nodesBefore := m.size
	c, _ := m.Var(2)
	d, _ := m.Var(3)
	cd, _ := m.And(c, d)
	_ = cd
	if m.size != nodesBefore {
		t.Errorf("arena grew from %d to %d despite free slots", nodesBefore, m.size)
	}
}

func TestNodeLimit(t *testing.T) {
	m := New(16, WithNodeLimit(8))
	var err error
	var f Node = True
	for i := 0; i < 16 && err == nil; i++ {
		var v Node
		v, err = m.Var(i)
		if err != nil {
			break
		}
		f, err = m.Xor(f, v) // xor chains grow linearly, hits limit fast
	}
	if err != ErrNodeLimit {
		t.Fatalf("expected ErrNodeLimit, got %v", err)
	}
	// The manager must remain usable for reads after a limit failure.
	if m.Eval(True, nil) != true {
		t.Error("manager unusable after limit hit")
	}
}

func TestPeakLiveMonotone(t *testing.T) {
	m := New(6)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	ab, _ := m.And(a, b)
	_ = ab
	p1 := m.PeakLive()
	if p1 < m.Live() {
		t.Errorf("PeakLive %d < Live %d", p1, m.Live())
	}
	m.GC()
	if m.PeakLive() < p1 {
		t.Errorf("PeakLive decreased across GC: %d -> %d", p1, m.PeakLive())
	}
}

func TestRefDerefProtection(t *testing.T) {
	m := New(4)
	a, b := mustVar(t, m, 0), mustVar(t, m, 1)
	f, _ := m.And(a, b)
	m.Ref(f)
	m.Ref(f)
	m.Deref(f)
	m.GC()
	// Still one ref: must survive.
	if !m.Eval(f, []bool{true, true}) {
		t.Error("node with remaining ref collected")
	}
	m.Deref(f)
	defer func() {
		if recover() == nil {
			t.Error("Deref of unreferenced node did not panic")
		}
	}()
	m.Deref(f)
}

func TestRefTerminalsNoop(t *testing.T) {
	m := New(2)
	m.Ref(True)
	m.Ref(False)
	m.Deref(True)
	m.Deref(False) // must not panic
}

// randomFormula builds the same random function in the BDD manager and
// as an evaluable closure, driven by a seeded generator.
func randomFormula(m *Manager, rng *rand.Rand, depth int, nvars int) (Node, func([]bool) bool, error) {
	if depth == 0 || rng.Intn(4) == 0 {
		lv := rng.Intn(nvars)
		v, err := m.Var(lv)
		return v, func(a []bool) bool { return a[lv] }, err
	}
	l, fl, err := randomFormula(m, rng, depth-1, nvars)
	if err != nil {
		return False, nil, err
	}
	r, fr, err := randomFormula(m, rng, depth-1, nvars)
	if err != nil {
		return False, nil, err
	}
	switch rng.Intn(4) {
	case 0:
		n, err := m.And(l, r)
		return n, func(a []bool) bool { return fl(a) && fr(a) }, err
	case 1:
		n, err := m.Or(l, r)
		return n, func(a []bool) bool { return fl(a) || fr(a) }, err
	case 2:
		n, err := m.Xor(l, r)
		return n, func(a []bool) bool { return fl(a) != fr(a) }, err
	default:
		n, err := m.Not(l)
		return n, func(a []bool) bool { return !fl(a) }, err
	}
}

// Property: BDD evaluation agrees with direct formula evaluation on
// every assignment, for random formulas.
func TestQuickRandomFormulaSemantics(t *testing.T) {
	const nvars = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, eval, err := randomFormula(m, rng, 4, nvars)
		if err != nil {
			return false
		}
		assign := make([]bool, nvars)
		for mask := 0; mask < 1<<nvars; mask++ {
			for i := range assign {
				assign[i] = mask&(1<<i) != 0
			}
			if m.Eval(root, assign) != eval(assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: canonicity — two structurally different constructions of
// the same random function always return the identical node.
func TestQuickCanonicity(t *testing.T) {
	const nvars = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, eval, err := randomFormula(m, rng, 4, nvars)
		if err != nil {
			return false
		}
		// Rebuild from the truth table as a sum of minterms.
		rebuilt := False
		assign := make([]bool, nvars)
		for mask := 0; mask < 1<<nvars; mask++ {
			for i := range assign {
				assign[i] = mask&(1<<i) != 0
			}
			if !eval(assign) {
				continue
			}
			term := True
			for i := 0; i < nvars; i++ {
				var lit Node
				lit, err = m.Var(i)
				if err == nil && !assign[i] {
					lit, err = m.Not(lit)
				}
				if err != nil {
					return false
				}
				term, err = m.And(term, lit)
				if err != nil {
					return false
				}
			}
			rebuilt, err = m.Or(rebuilt, term)
			if err != nil {
				return false
			}
		}
		return rebuilt == root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: GC preserves referenced functions and canonicity under
// random interleavings of construction and collection.
func TestQuickGCPreservation(t *testing.T) {
	const nvars = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, eval, err := randomFormula(m, rng, 5, nvars)
		if err != nil {
			return false
		}
		m.Ref(root)
		// Garbage rounds interleaved with GC.
		for i := 0; i < 3; i++ {
			if _, _, err := randomFormula(m, rng, 5, nvars); err != nil {
				return false
			}
			m.GC()
		}
		assign := make([]bool, nvars)
		for mask := 0; mask < 1<<nvars; mask++ {
			for i := range assign {
				assign[i] = mask&(1<<i) != 0
			}
			if m.Eval(root, assign) != eval(assign) {
				return false
			}
		}
		m.Deref(root)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLargeXorChainSizeIsLinear(t *testing.T) {
	// Parity of n variables has a BDD of 2n+... nodes (2 per level + 2
	// terminals with this construction) — a classic sanity check that
	// the unique table shares aggressively.
	const n = 24
	m := New(n)
	f := False
	for i := 0; i < n; i++ {
		v := mustVar(t, m, i)
		var err error
		f, err = m.Xor(f, v)
		if err != nil {
			t.Fatalf("Xor: %v", err)
		}
	}
	size := m.Size(f)
	if size > 2*n+2 {
		t.Errorf("parity BDD size = %d, want ≤ %d", size, 2*n+2)
	}
	// The first k variables set: parity k mod 2.
	assign := make([]bool, n)
	for k := 0; k <= n; k++ {
		if got := m.Eval(f, assign); got != (k%2 == 1) {
			t.Errorf("parity of %d set variables = %v", k, got)
		}
		if k < n {
			assign[k] = true
		}
	}
}

func TestManyVariablesStress(t *testing.T) {
	// Interleaved conjunction x0∧x2∧… ∨ x1∧x3∧… exercises bucket
	// resizing and the cache without blowing up.
	const n = 40
	m := New(n)
	even, odd := True, True
	for i := 0; i < n; i++ {
		v := mustVar(t, m, i)
		var err error
		if i%2 == 0 {
			even, err = m.And(even, v)
		} else {
			odd, err = m.And(odd, v)
		}
		if err != nil {
			t.Fatalf("And: %v", err)
		}
	}
	f, err := m.Or(even, odd)
	if err != nil {
		t.Fatalf("Or: %v", err)
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if !m.Eval(f, all) {
		t.Error("f(1..1) = false, want true")
	}
	if m.Eval(f, make([]bool, n)) {
		t.Error("f(0..0) = true, want false")
	}
}

// Property: Size is invariant under re-derivation.
func TestQuickSizeInvariants(t *testing.T) {
	const nvars = 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, _, err := randomFormula(m, rng, 4, nvars)
		if err != nil {
			return false
		}
		s1 := m.Size(root)
		s2 := m.Size(root)
		return s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewNegativeVarsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestMaybeGCThreshold(t *testing.T) {
	m := New(20)
	// Small arenas: MaybeGC must be a no-op.
	if freed := m.MaybeGC(); freed != 0 {
		t.Errorf("MaybeGC freed %d on a tiny arena", freed)
	}
	if m.Stats().GCs != 0 {
		t.Errorf("GC ran prematurely")
	}
}
