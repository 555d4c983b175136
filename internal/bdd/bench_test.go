package bdd

import (
	"fmt"
	"testing"
)

// BenchmarkITEAdder measures ITE throughput on a carry chain: the
// canonical dense-sharing workload.
func BenchmarkITEAdder(b *testing.B) {
	const n = 24
	for b.Loop() {
		m := New(2 * n)
		carry := False
		for i := 0; i < n; i++ {
			x, _ := m.Var(2 * i)
			y, _ := m.Var(2*i + 1)
			xy, err := m.And(x, y)
			if err != nil {
				b.Fatal(err)
			}
			xOrY, _ := m.Or(x, y)
			t, _ := m.And(xOrY, carry)
			carry, _ = m.Or(xy, t)
		}
		if carry == False {
			b.Fatal("carry collapsed")
		}
	}
}

// wideOperands builds k operands over n variables, each a small
// product (and=true) or sum (and=false) of literals, with a
// deterministic LCG choosing variables and polarities — the shape of a
// wide gate fan-in in the compiled G netlists.
func wideOperands(b *testing.B, m *Manager, k int, and bool) []Node {
	b.Helper()
	const n = 28
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(bound int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(bound))
	}
	ops := make([]Node, k)
	for i := range ops {
		lits := make([]Node, 3)
		for j := range lits {
			v, err := m.Var(next(n))
			if err != nil {
				b.Fatal(err)
			}
			if next(2) == 1 {
				v, _ = m.Not(v)
			}
			lits[j] = v
		}
		var err error
		if and {
			// Operands for a wide Or: small products.
			ops[i], err = m.And(lits...)
		} else {
			ops[i], err = m.Or(lits...)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return ops
}

// BenchmarkWideFanin compares the n-ary apply against the left fold of
// binary ITEs it replaced in internal/compile, on a 64-operand gate
// fan-in (sum of products for Or, product of sums for And).
func BenchmarkWideFanin(b *testing.B) {
	const (
		n = 28
		k = 64
	)
	bench := func(b *testing.B, and, nary bool) {
		for b.Loop() {
			m := New(n)
			ops := wideOperands(b, m, k, !and)
			var r Node
			var err error
			switch {
			case nary && and:
				r, err = m.And(ops...)
			case nary:
				r, err = m.Or(ops...)
			case and:
				r = True
				for _, f := range ops {
					if r, err = m.ITE(f, r, False); err != nil {
						break
					}
				}
			default:
				r = False
				for _, f := range ops {
					if r, err = m.ITE(f, True, r); err != nil {
						break
					}
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			if m.IsTerminal(r) {
				b.Fatal("fan-in collapsed to a terminal")
			}
		}
	}
	b.Run("and/nary", func(b *testing.B) { bench(b, true, true) })
	b.Run("and/folded-ite", func(b *testing.B) { bench(b, true, false) })
	b.Run("or/nary", func(b *testing.B) { bench(b, false, true) })
	b.Run("or/folded-ite", func(b *testing.B) { bench(b, false, false) })
}

// BenchmarkGC measures mark-sweep cost with a half-garbage arena.
func BenchmarkGC(b *testing.B) {
	const n = 18
	build := func(m *Manager) Node {
		f := False
		for i := 0; i < n; i++ {
			v, _ := m.Var(i)
			f, _ = m.Xor(f, v)
		}
		return f
	}
	for b.Loop() {
		m := New(n)
		keep := m.Ref(build(m))
		for i := 0; i < 4; i++ {
			v, _ := m.Var(i)
			g, _ := m.And(keep, v)
			_ = g // garbage
		}
		m.GC()
		m.Deref(keep)
	}
}

// BenchmarkUniqueTableChurn exercises mk with many distinct small
// functions (hash-table stress).
func BenchmarkUniqueTableChurn(b *testing.B) {
	const n = 16
	for b.Loop() {
		m := New(n)
		acc := True
		for i := 0; i+2 < n; i++ {
			x, _ := m.Var(i)
			y, _ := m.Var(i + 1)
			z, _ := m.Var(i + 2)
			t1, _ := m.ITE(x, y, z)
			t2, _ := m.ITE(y, z, x)
			o, err := m.Or(t1, t2)
			if err != nil {
				b.Fatal(err)
			}
			acc, err = m.And(acc, o)
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = fmt.Sprint(acc == False)
	}
}
