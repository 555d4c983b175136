package mdd

import "testing"

func buildThreshold(b *testing.B, m *Manager, vars, k int) Node {
	// "at least k of the MV variables are nonzero" via apply chain.
	b.Helper()
	counts := make([]Node, k+1)
	for i := range counts {
		counts[i] = False
	}
	counts[0] = True
	for v := 0; v < vars; v++ {
		nz, err := m.LiteralGeq(v, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := k; i >= 1; i-- {
			with, err := m.And(counts[i-1], nz)
			if err != nil {
				b.Fatal(err)
			}
			counts[i], err = m.Or(counts[i], with)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return counts[k]
}

// BenchmarkApplyThreshold measures MDD apply throughput.
func BenchmarkApplyThreshold(b *testing.B) {
	domains := make([]int, 10)
	for i := range domains {
		domains[i] = 4
	}
	for b.Loop() {
		m := MustNew(domains)
		root := buildThreshold(b, m, 10, 4)
		if root == False || root == True {
			b.Fatal("degenerate threshold")
		}
	}
}

// BenchmarkProb measures the frozen probability pass on a reduced
// diagram with thousands of nodes.
func BenchmarkProb(b *testing.B) {
	domains := make([]int, 12)
	probs := make([][]float64, 12)
	for i := range domains {
		domains[i] = 4
		probs[i] = []float64{0.4, 0.3, 0.2, 0.1}
	}
	m := MustNew(domains)
	f := m.Freeze(buildThreshold(b, m, 12, 5))
	b.ResetTimer()
	for b.Loop() {
		p, err := f.Prob(probs)
		if err != nil {
			b.Fatal(err)
		}
		if p <= 0 || p >= 1 {
			b.Fatalf("p = %v", p)
		}
	}
}
