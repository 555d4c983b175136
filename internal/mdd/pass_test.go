package mdd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSplitEveryLevel checks the split pass against Prob at every
// level of random diagrams: folding (g, s) with the level's row gives
// P(f = 1), the level's row is never read, and g[v] + s is the
// probability conditional on the level's variable taking value v.
func TestSplitEveryLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var buf PassBuffer
	for trial := 0; trial < 25; trial++ {
		m, root := randomDiagram(t, rng)
		f := m.Freeze(root)
		probs := randomProbs(m, rng)
		want, err := f.Prob(probs)
		if err != nil {
			t.Fatalf("Prob: %v", err)
		}
		for l := 0; l < f.NumVars(); l++ {
			row := probs[l]
			probs[l] = nil
			g, s, err := f.Split(probs, l, &buf)
			probs[l] = row
			if err != nil {
				t.Fatalf("trial %d level %d: Split: %v", trial, l, err)
			}
			if len(g) != f.Domain(l) {
				t.Fatalf("trial %d level %d: %d entries, want %d", trial, l, len(g), f.Domain(l))
			}
			got := Fold(row, g, s)
			if root >= 2 && l == int(f.levels[f.root]) {
				if got != want || s != 0 {
					t.Errorf("trial %d: split at the root's level %v (s=%v), Prob %v", trial, got, s, want)
				}
			} else if math.Abs(got-want) > 1e-14 {
				t.Errorf("trial %d level %d: folded split %v, Prob %v", trial, l, got, want)
			}
			for v := range g {
				onehot := make([]float64, len(row))
				onehot[v] = 1
				probs[l] = onehot
				cond, err := f.Prob(probs)
				probs[l] = row
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(g[v]+s-cond) > 1e-14 {
					t.Errorf("trial %d level %d value %d: g+s = %v, P(f=1 | x=%d) = %v", trial, l, v, g[v]+s, v, cond)
				}
			}
		}
	}
}

// TestGradIsExact checks the reverse pass entry by entry. P(f = 1) is
// affine in each single table entry (an ordered diagram reads each
// variable at most once per path), so the gradient entry equals the
// change of Prob when that entry grows by one.
func TestGradIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var buf PassBuffer
	for trial := 0; trial < 25; trial++ {
		m, root := randomDiagram(t, rng)
		f := m.Freeze(root)
		probs := randomProbs(m, rng)
		want, err := f.Prob(probs)
		if err != nil {
			t.Fatalf("Prob: %v", err)
		}
		p, grad, err := f.Grad(probs)
		if err != nil {
			t.Fatalf("Grad: %v", err)
		}
		if p != want {
			t.Errorf("trial %d: Grad's P %v, Prob %v", trial, p, want)
		}
		for l := range grad {
			for v := range grad[l] {
				probs[l][v]++
				up, err := f.Prob(probs)
				probs[l][v]--
				if err != nil {
					t.Fatal(err)
				}
				if d := up - want; math.Abs(grad[l][v]-d) > 1e-12 {
					t.Errorf("trial %d: ∂P/∂probs[%d][%d] = %v, difference %v", trial, l, v, grad[l][v], d)
				}
			}
			// The gradient row of a level is the split vector there.
			g, _, err := f.Split(probs, l, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for v := range g {
				if math.Abs(g[v]-grad[l][v]) > 1e-14 {
					t.Errorf("trial %d level %d: split %v, gradient %v", trial, l, g, grad[l])
					break
				}
			}
		}
	}
}

// TestPassTerminalsAndErrors covers constant diagrams and malformed
// inputs of the split and gradient passes.
func TestPassTerminalsAndErrors(t *testing.T) {
	m := MustNew([]int{2, 3})
	probs := [][]float64{{0.5, 0.5}, {0.2, 0.3, 0.5}}
	for _, root := range []Node{False, True} {
		f := m.Freeze(root)
		g, s, err := f.Split(probs, 1, nil)
		if err != nil || s != float64(root) || !slices.Equal(g, []float64{0, 0, 0}) {
			t.Errorf("root %d: Split = %v, %v, %v", root, g, s, err)
		}
		p, grad, err := f.Grad(probs)
		if err != nil || p != float64(root) || len(grad) != 2 || !slices.Equal(grad[1], []float64{0, 0, 0}) {
			t.Errorf("root %d: Grad = %v, %v, %v", root, p, grad, err)
		}
	}
	lit, err := m.LiteralEq(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Freeze(lit)
	for _, level := range []int{-1, 2} {
		if _, _, err := f.Split(probs, level, nil); err == nil {
			t.Errorf("split level %d accepted", level)
		}
	}
	if _, _, err := f.Split([][]float64{{0.5, 0.5}}, 0, nil); err == nil {
		t.Error("short table accepted by Split")
	}
	if _, _, err := f.Split([][]float64{nil, {0.5, 0.5}}, 0, nil); err == nil {
		t.Error("bad row accepted by Split")
	}
	if _, _, err := f.Grad([][]float64{{0.5, 0.5}, {0.5, 0.5}}); err == nil {
		t.Error("bad row accepted by Grad")
	}
	// The literal skips level 0: its whole probability is carried by
	// the edges that jump over it.
	g, s, err := f.Split([][]float64{nil, {0.2, 0.3, 0.5}}, 0, nil)
	if err != nil || s != 0.5 || !slices.Equal(g, []float64{0, 0}) {
		t.Errorf("split above the root: %v, %v, %v", g, s, err)
	}
}
