package mdd

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// randomDiagram builds a pseudo-random diagram over mixed domains for
// structural comparisons between the manager and its frozen snapshot.
func randomDiagram(t *testing.T, rng *rand.Rand) (*Manager, Node) {
	t.Helper()
	domains := []int{3, 2, 4, 2, 3}
	m := MustNew(domains)
	root := False
	for i := 0; i < 12; i++ {
		lv := rng.Intn(len(domains))
		v := rng.Intn(domains[lv])
		lit, err := m.LiteralEq(lv, v)
		if err != nil {
			t.Fatalf("LiteralEq: %v", err)
		}
		if rng.Intn(2) == 0 {
			root, err = m.Or(root, lit)
		} else {
			term, e2 := m.And(lit, root)
			if e2 != nil {
				t.Fatalf("And: %v", e2)
			}
			root, err = m.Xor(root, term)
		}
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
	}
	return m, root
}

func randomProbs(m *Manager, rng *rand.Rand) [][]float64 {
	probs := make([][]float64, m.NumVars())
	for l := range probs {
		row := make([]float64, m.Domain(l))
		sum := 0.0
		for v := range row {
			row[v] = rng.Float64()
			sum += row[v]
		}
		for v := range row {
			row[v] /= sum
		}
		probs[l] = row
	}
	return probs
}

// enumProb is P(f = 1) by exhaustive enumeration of the manager's
// diagram: the sum, over the assignments Manager.Eval maps to 1, of
// their product probabilities.
func enumProb(t *testing.T, m *Manager, root Node, probs [][]float64) float64 {
	t.Helper()
	domains := make([]int, m.NumVars())
	for l := range domains {
		domains[l] = m.Domain(l)
	}
	total := 0.0
	forEachAssign(domains, func(a []int) {
		v, err := m.Eval(root, a)
		if err != nil {
			t.Errorf("Manager.Eval: %v", err)
			return
		}
		if v {
			p := 1.0
			for l, x := range a {
				p *= probs[l][x]
			}
			total += p
		}
	})
	return total
}

func TestFrozenMatchesManager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m, root := randomDiagram(t, rng)
		f := m.Freeze(root)
		if got, want := f.Size(), m.Size(root); got != want {
			t.Fatalf("trial %d: frozen size %d, manager %d", trial, got, want)
		}
		probs := randomProbs(m, rng)
		want := enumProb(t, m, root, probs)
		got, err := f.Prob(probs)
		if err != nil {
			t.Fatalf("Frozen.Prob: %v", err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: frozen prob %v, enumeration over the manager %v", trial, got, want)
		}
		if root >= 2 {
			// The split pass at the root's level, folded with the
			// root's row, forms the same sum through a reused buffer.
			var buf PassBuffer
			lv := int(f.levels[f.root])
			g, s, err := f.Split(probs, lv, &buf)
			if got2 := Fold(probs[lv], g, s); err != nil || got2 != got {
				t.Fatalf("Split at the root: %v, %v (want %v)", got2, err, got)
			}
		}
		ms, fs := m.ComputeStats(root), f.ComputeStats()
		if ms.Nodes != fs.Nodes || ms.MaxWidth != fs.MaxWidth || math.Abs(ms.AvgDegree-fs.AvgDegree) > 1e-12 {
			t.Fatalf("trial %d: stats differ: manager %+v, frozen %+v", trial, ms, fs)
		}
		for l := range ms.PerLevel {
			if ms.PerLevel[l] != fs.PerLevel[l] {
				t.Fatalf("trial %d: level %d width %d vs %d", trial, l, ms.PerLevel[l], fs.PerLevel[l])
			}
		}
		// Random assignments evaluate identically.
		for i := 0; i < 20; i++ {
			assign := make([]int, m.NumVars())
			for l := range assign {
				assign[l] = rng.Intn(m.Domain(l))
			}
			mv, err := m.Eval(root, assign)
			if err != nil {
				t.Fatalf("Manager.Eval: %v", err)
			}
			fv, err := f.Eval(assign)
			if err != nil {
				t.Fatalf("Frozen.Eval: %v", err)
			}
			if mv != fv {
				t.Fatalf("assign %v: manager %v, frozen %v", assign, mv, fv)
			}
		}
	}
}

func TestFrozenTerminals(t *testing.T) {
	m := MustNew([]int{2, 3})
	for _, root := range []Node{False, True} {
		f := m.Freeze(root)
		if f.Size() != 1 {
			t.Errorf("Freeze(%v).Size() = %d, want 1", root, f.Size())
		}
		p, err := f.Prob([][]float64{{0.5, 0.5}, {0.2, 0.3, 0.5}})
		if err != nil {
			t.Fatalf("Prob: %v", err)
		}
		want := 0.0
		if root == True {
			want = 1
		}
		if p != want {
			t.Errorf("Freeze(%v).Prob = %v, want %v", root, p, want)
		}
		got, err := f.Eval([]int{0, 0})
		if err != nil || got != (root == True) {
			t.Errorf("Freeze(%v).Eval = %v, %v", root, got, err)
		}
	}
}

func TestFrozenValidation(t *testing.T) {
	m := MustNew([]int{2, 2})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 1)
	root, _ := m.And(a, b)
	f := m.Freeze(root)
	if _, err := f.Prob([][]float64{{0.5, 0.5}}); err == nil {
		t.Error("short probability table accepted")
	}
	if _, err := f.Prob([][]float64{{0.5, 0.5}, {0.1, 0.2, 0.7}}); err == nil {
		t.Error("wrong row width accepted")
	}
	if _, err := f.Eval([]int{1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := f.Eval([]int{2, 0}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if f.NumVars() != 2 || f.Domain(0) != 2 {
		t.Errorf("shape accessors: vars %d, domain(0) %d", f.NumVars(), f.Domain(0))
	}
}

// TestFrozenDetachedFromManager freezes, then keeps building on the
// manager; the snapshot must be unaffected.
func TestFrozenDetachedFromManager(t *testing.T) {
	m := MustNew([]int{2, 2, 2})
	a, _ := m.LiteralEq(0, 1)
	b, _ := m.LiteralEq(1, 1)
	root, _ := m.Or(a, b)
	f := m.Freeze(root)
	probs := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	before, _ := f.Prob(probs)
	// Grow the manager substantially.
	for v := 0; v < 2; v++ {
		c, _ := m.LiteralEq(2, v)
		if _, err := m.Xor(root, c); err != nil {
			t.Fatalf("Xor: %v", err)
		}
	}
	after, _ := f.Prob(probs)
	if before != after {
		t.Errorf("snapshot changed after manager growth: %v vs %v", before, after)
	}
}

// TestFreezeAdoptsOnlyItsOwnLayout builds one function twice: once
// with the nodes created in the post-order Freeze numbers them in, so
// the snapshot adopts the manager's child array, and once in another
// order, so Freeze copies. Both snapshots must be equal, and the
// adopted one must not change as its manager keeps growing.
func TestFreezeAdoptsOnlyItsOwnLayout(t *testing.T) {
	build := func(aFirst bool) (*Manager, Node) {
		m := MustNew([]int{2, 3})
		var a, b Node
		if aFirst {
			a, _ = m.MkNode(1, []Node{False, True, True})
			b, _ = m.MkNode(1, []Node{True, False, False})
		} else {
			b, _ = m.MkNode(1, []Node{True, False, False})
			a, _ = m.MkNode(1, []Node{False, True, True})
		}
		root, err := m.MkNode(0, []Node{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return m, root
	}
	shares := func(f *Frozen, m *Manager) bool {
		return unsafe.Pointer(unsafe.SliceData(f.kids)) == unsafe.Pointer(unsafe.SliceData(m.kids))
	}
	pm, proot := build(true)
	adopted := pm.Freeze(proot)
	if !shares(adopted, pm) {
		t.Fatal("Freeze copied a manager already in post-order")
	}
	om, oroot := build(false)
	copied := om.Freeze(oroot)
	if shares(copied, om) {
		t.Fatal("Freeze adopted a manager out of post-order")
	}
	want := copied.Data()
	check := func() {
		t.Helper()
		got := adopted.Data()
		if !slices.Equal(got.Levels, want.Levels) || !slices.Equal(got.Kids, want.Kids) ||
			!slices.Equal(got.Domains, want.Domains) || got.Root != want.Root {
			t.Fatalf("adopted snapshot %+v, copied %+v", got, want)
		}
	}
	check()
	for v := 0; v < 3; v++ {
		lit, err := pm.LiteralEq(1, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pm.Xor(proot, lit); err != nil {
			t.Fatal(err)
		}
	}
	check()
}

// TestFrozenConcurrentReads hammers one snapshot (and the read-only
// manager paths) from many goroutines; run under -race this is the
// concurrency contract test for the evaluation engine's lowest layer.
func TestFrozenConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, root := randomDiagram(t, rng)
	f := m.Freeze(root)
	probs := randomProbs(m, rng)
	want, err := f.Prob(probs)
	if err != nil {
		t.Fatalf("Prob: %v", err)
	}
	wantEnum := enumProb(t, m, root, probs)
	if math.Abs(want-wantEnum) > 1e-12 {
		t.Fatalf("Prob = %v, enumeration over the manager %v", want, wantEnum)
	}
	wantSize := m.Size(root)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf PassBuffer
			lv := int(f.levels[f.root])
			for i := 0; i < 200; i++ {
				g, s, err := f.Split(probs, lv, &buf)
				if got := Fold(probs[lv], g, s); err != nil || got != want {
					errs <- err
					return
				}
				if i%20 == 0 && enumProb(t, m, root, probs) != wantEnum {
					errs <- nil
					return
				}
				if m.Size(root) != wantSize || f.Size() != wantSize {
					errs <- nil
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent read mismatch (err=%v)", e)
	}
}
