package yield

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"socyield/internal/mdd"
)

// flatArena is the ROMDD layout before the slot maps: one child per
// value, node after node, as mdd.FrozenData serializes it. Its passes
// are the ones the snapshot ran over that layout; the compact snapshot
// must reproduce every result bit for bit.
type flatArena struct {
	d   mdd.FrozenData
	off []int // off[i]: node i's first entry in d.Kids
}

func newFlatArena(d mdd.FrozenData) *flatArena {
	a := &flatArena{d: d, off: make([]int, len(d.Levels))}
	off := 0
	for i := 2; i < len(d.Levels); i++ {
		a.off[i] = off
		off += int(d.Domains[d.Levels[i]])
	}
	return a
}

func (a *flatArena) kids(i int) []int32 {
	return a.d.Kids[a.off[i] : a.off[i]+int(a.d.Domains[a.d.Levels[i]])]
}

// split is the pass Frozen.Split ran over the flat layout.
func (a *flatArena) split(probs [][]float64, level int32, vals, g []float64) (s float64) {
	levels, root := a.d.Levels, int(a.d.Root)
	vals[mdd.False], vals[mdd.True] = 0, 1
	for i := 2; i < len(levels); i++ {
		lv := levels[i]
		if lv <= level {
			vals[i] = 0
			continue
		}
		total := 0.0
		for v, k := range a.kids(i) {
			if p := probs[lv][v]; p != 0 {
				total += p * vals[k]
			}
		}
		vals[i] = total
	}
	if root < 2 || levels[root] > level {
		return vals[root]
	}
	vals[root] = 1
	for i := root; i >= 2; i-- {
		lv := levels[i]
		reach := vals[i]
		if lv > level || reach == 0 {
			continue
		}
		if lv == level {
			for v, k := range a.kids(i) {
				g[v] += reach * vals[k]
			}
			continue
		}
		for v, k := range a.kids(i) {
			p := probs[lv][v]
			if p == 0 {
				continue
			}
			if k < 2 || levels[k] > level {
				s += reach * p * vals[k]
			} else {
				vals[k] += reach * p
			}
		}
	}
	return s
}

func (a *flatArena) prob(probs [][]float64) float64 {
	root := a.d.Root
	if root < 2 {
		return float64(root)
	}
	lv := a.d.Levels[root]
	g := make([]float64, a.d.Domains[lv])
	s := a.split(probs, lv, make([]float64, len(a.d.Levels)), g)
	return mdd.Fold(probs[lv], g, s)
}

func (a *flatArena) grad(probs [][]float64) (float64, [][]float64) {
	grad := make([][]float64, len(a.d.Domains))
	for l, d := range a.d.Domains {
		grad[l] = make([]float64, d)
	}
	vals := make([]float64, len(a.d.Levels))
	p := a.split(probs, -1, vals, nil)
	root := int(a.d.Root)
	if root < 2 {
		return p, grad
	}
	adj := make([]float64, len(a.d.Levels))
	adj[root] = 1
	for i := root; i >= 2; i-- {
		if adj[i] == 0 {
			continue
		}
		lv := a.d.Levels[i]
		for v, k := range a.kids(i) {
			grad[lv][v] += adj[i] * vals[k]
			if k >= 2 {
				adj[k] += adj[i] * probs[lv][v]
			}
		}
	}
	return p, grad
}

func (a *flatArena) eval(assign []int) bool {
	n := int(a.d.Root)
	for n >= 2 {
		n = int(a.kids(n)[assign[a.d.Levels[n]]])
	}
	return n == int(mdd.True)
}

// flatFreeze lays out the diagram rooted at root in m as the flat
// snapshot did: a post-order walk over every value's child, children
// before parents, each node numbered once. It reads m only through
// Level and Kid.
func flatFreeze(m *mdd.Manager, root mdd.Node) mdd.FrozenData {
	nv := int32(m.NumVars())
	d := mdd.FrozenData{Levels: []int32{nv, nv}, Root: int32(root)}
	for l := range m.NumVars() {
		d.Domains = append(d.Domains, int32(m.Domain(l)))
	}
	remap := map[mdd.Node]int32{mdd.False: 0, mdd.True: 1}
	var walk func(x mdd.Node) int32
	walk = func(x mdd.Node) int32 {
		if idx, ok := remap[x]; ok {
			return idx
		}
		kids := make([]int32, m.Domain(m.Level(x)))
		for v := range kids {
			kids[v] = walk(m.Kid(x, v))
		}
		idx := int32(len(d.Levels))
		d.Levels = append(d.Levels, int32(m.Level(x)))
		d.Kids = append(d.Kids, kids...)
		remap[x] = idx
		return idx
	}
	d.Root = walk(root)
	return d
}

// randomRows draws one probability row per level; about one entry in
// five is zero, so the passes' zero skips are exercised.
func randomRows(rng *rand.Rand, domains []int32) [][]float64 {
	probs := make([][]float64, len(domains))
	for l, d := range domains {
		probs[l] = make([]float64, d)
		for v := range probs[l] {
			if rng.Intn(5) > 0 {
				probs[l][v] = rng.Float64()
			}
		}
	}
	return probs
}

// checkCompactPasses checks one built model against the flat layout:
// its serialized arrays equal those the flat snapshot had, and Split at
// every level, Prob, Grad and Eval return exactly what the flat passes
// return.
func checkCompactPasses(t *testing.T, name string, f *mdd.Frozen, want mdd.FrozenData, rng *rand.Rand) {
	t.Helper()
	d := f.Data()
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("%s: Data (%d nodes, %d values) differs from the flat layout (%d nodes, %d values)",
			name, len(d.Levels), len(d.Kids), len(want.Levels), len(want.Kids))
	}
	ref := newFlatArena(want)
	for trial := 0; trial < 3; trial++ {
		probs := randomRows(rng, want.Domains)
		for l := range want.Domains {
			g, s, err := f.Split(probs, l, nil)
			if err != nil {
				t.Fatal(err)
			}
			wg := make([]float64, want.Domains[l])
			ws := ref.split(probs, int32(l), make([]float64, len(want.Levels)), wg)
			if s != ws || !reflect.DeepEqual(g, wg) {
				t.Fatalf("%s: Split at level %d gives (%v, %v), flat (%v, %v)", name, l, g, s, wg, ws)
			}
		}
		p, err := f.Prob(probs)
		if err != nil {
			t.Fatal(err)
		}
		if wp := ref.prob(probs); p != wp {
			t.Fatalf("%s: Prob %.17g, flat %.17g", name, p, wp)
		}
		p, grad, err := f.Grad(probs)
		if err != nil {
			t.Fatal(err)
		}
		if wp, wgrad := ref.grad(probs); p != wp || !reflect.DeepEqual(grad, wgrad) {
			t.Fatalf("%s: Grad differs from the flat pass", name)
		}
		assign := make([]int, len(want.Domains))
		for a := 0; a < 20; a++ {
			for l := range assign {
				assign[l] = rng.Intn(int(want.Domains[l]))
			}
			got, err := f.Eval(assign)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref.eval(assign) {
				t.Fatalf("%s: Eval%v = %v, flat %v", name, assign, got, !got)
			}
		}
	}
}

// TestCompactMatchesFlatLayout builds the oracle differential's trees
// under all seven MV orderings and checks each built ROMDD against the
// flat layout. The flat arrays come from a walk over the direct-MDD
// route's manager, which Freeze takes no part in. The benchmark systems
// run in TestCompactMatchesFlatLayoutBenchmarks.
func TestCompactMatchesFlatLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range differentialCases() {
		for _, mv := range allMVKinds {
			opts := tc.opts
			opts.MVOrder = mv
			name := fmt.Sprintf("%s under %v", tc.name, mv)
			md, err := build(tc.sys, opts)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			dm, droot, err := buildDirectMDD(tc.sys.FaultTree, md.p.m, len(tc.sys.Components), md.plan.GroupSeq, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkCompactPasses(t, name, md.frozen, flatFreeze(dm, droot), rng)
		}
	}
}
