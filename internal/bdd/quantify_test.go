package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Restrict agrees with semantic cofactoring on random
// formulas — f|x=v evaluated anywhere equals f evaluated with x := v.
func TestQuickRestrictSemantics(t *testing.T) {
	const nvars = 5
	f := func(seed int64, lvRaw uint8, val bool) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, eval, err := randomFormula(m, rng, 4, nvars)
		if err != nil {
			return false
		}
		lv := int(lvRaw) % nvars
		r, err := m.Restrict(root, lv, val)
		if err != nil {
			return false
		}
		// The restricted function must not depend on lv.
		for _, s := range m.Support(r) {
			if s == lv {
				return false
			}
		}
		assign := make([]bool, nvars)
		for mask := 0; mask < 1<<nvars; mask++ {
			for i := range assign {
				assign[i] = mask&(1<<i) != 0
			}
			forced := make([]bool, nvars)
			copy(forced, assign)
			forced[lv] = val
			if m.Eval(r, assign) != eval(forced) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ∃x.f is the disjunction of the two cofactors, and is
// implied by f.
func TestQuickExistsSemantics(t *testing.T) {
	const nvars = 5
	f := func(seed int64, lvRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(nvars)
		root, eval, err := randomFormula(m, rng, 4, nvars)
		if err != nil {
			return false
		}
		lv := int(lvRaw) % nvars
		ex, err := m.Exists(root, lv)
		if err != nil {
			return false
		}
		assign := make([]bool, nvars)
		for mask := 0; mask < 1<<nvars; mask++ {
			for i := range assign {
				assign[i] = mask&(1<<i) != 0
			}
			a0 := make([]bool, nvars)
			copy(a0, assign)
			a0[lv] = false
			a1 := make([]bool, nvars)
			copy(a1, assign)
			a1[lv] = true
			want := eval(a0) || eval(a1)
			if m.Eval(ex, assign) != want {
				return false
			}
			// f ⇒ ∃x.f
			if eval(assign) && !m.Eval(ex, assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Size is invariant under re-derivation, and SizeShared of a
// function with itself equals Size.
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
		if s1 != s2 {
			return false
		}
		return m.SizeShared([]Node{root, root}) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExistsMultipleLevels(t *testing.T) {
	m := New(3)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	c := mustVar(t, m, 2)
	ab, _ := m.And(a, b)
	f, _ := m.Or(ab, c)
	// ∃a,b. (a∧b)∨c = True (choose a=b=1).
	ex, err := m.Exists(f, 0, 1)
	if err != nil {
		t.Fatalf("Exists: %v", err)
	}
	if ex != True {
		t.Errorf("∃a,b.(a∧b)∨c = %d, want True", ex)
	}
	// ∃c. (a∧b)∨c = True.
	ex2, _ := m.Exists(f, 2)
	if ex2 != True {
		t.Errorf("∃c.(a∧b)∨c = %d, want True", ex2)
	}
	andOnly, _ := m.Exists(ab, 2) // c not in support: no-op
	if andOnly != ab {
		t.Errorf("∃c.(a∧b) changed the function")
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
	if m.GCs() != 0 {
		t.Errorf("GC ran prematurely")
	}
}
