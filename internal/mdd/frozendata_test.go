package mdd

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestFrozenDataRoundTrip: Data → FrozenFromData reproduces the
// snapshot bit for bit — Prob, Eval, Size and ComputeStats all agree
// exactly with the original.
func TestFrozenDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		m, root := randomDiagram(t, rng)
		f := m.Freeze(root)
		g, err := FrozenFromData(f.Data())
		if err != nil {
			t.Fatalf("trial %d: FrozenFromData: %v", trial, err)
		}
		if g.NumNodes() != f.NumNodes() || g.Size() != f.Size() {
			t.Fatalf("trial %d: sizes differ: %d/%d vs %d/%d", trial, g.NumNodes(), g.Size(), f.NumNodes(), f.Size())
		}
		probs := randomProbs(m, rng)
		pf, err := f.Prob(probs)
		if err != nil {
			t.Fatalf("trial %d: orig Prob: %v", trial, err)
		}
		pg, err := g.Prob(probs)
		if err != nil {
			t.Fatalf("trial %d: rebuilt Prob: %v", trial, err)
		}
		if pf != pg {
			t.Fatalf("trial %d: Prob differs: %v vs %v", trial, pg, pf)
		}
		assign := make([]int, m.NumVars())
		for k := 0; k < 32; k++ {
			for l := range assign {
				assign[l] = rng.Intn(m.Domain(l))
			}
			vf, err := f.Eval(assign)
			if err != nil {
				t.Fatalf("trial %d: orig Eval: %v", trial, err)
			}
			vg, err := g.Eval(assign)
			if err != nil {
				t.Fatalf("trial %d: rebuilt Eval: %v", trial, err)
			}
			if vf != vg {
				t.Fatalf("trial %d: Eval differs on %v", trial, assign)
			}
		}
		sf, sg := f.ComputeStats(), g.ComputeStats()
		if sf.Nodes != sg.Nodes || sf.MaxWidth != sg.MaxWidth || sf.AvgDegree != sg.AvgDegree {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, sg, sf)
		}
	}
}

// TestFrozenDataTerminalRoot covers snapshots whose root is a bare
// terminal (no internal nodes at all).
func TestFrozenDataTerminalRoot(t *testing.T) {
	m := MustNew([]int{2, 3})
	for _, root := range []Node{False, True} {
		f := m.Freeze(root)
		g, err := FrozenFromData(f.Data())
		if err != nil {
			t.Fatalf("root %v: %v", root, err)
		}
		got, err := g.Eval([]int{0, 0})
		if err != nil {
			t.Fatalf("root %v: Eval: %v", root, err)
		}
		if got != (root == True) {
			t.Fatalf("root %v: Eval = %v", root, got)
		}
	}
}

// TestFrozenDataRejects drives every validation clause of
// FrozenFromData with a minimal violating input.
func TestFrozenDataRejects(t *testing.T) {
	// A valid baseline: one node at level 0 over domains {2,2},
	// children False and True.
	valid := func() FrozenData {
		return FrozenData{
			Domains: []int32{2, 2},
			Levels:  []int32{2, 2, 0},
			Kids:    []int32{0, 1},
			Root:    2,
		}
	}
	if _, err := FrozenFromData(valid()); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*FrozenData)
		errPart string
	}{
		{"domain too small", func(d *FrozenData) { d.Domains[1] = 1 }, "need ≥ 2"},
		{"missing terminals", func(d *FrozenData) { d.Levels = d.Levels[:1] }, "terminals"},
		{"bad terminal level", func(d *FrozenData) { d.Levels[1] = 0 }, "terminal levels"},
		{"level out of range", func(d *FrozenData) { d.Levels[2] = 5 }, "outside"},
		{"negative level", func(d *FrozenData) { d.Levels[2] = -1 }, "outside"},
		{"kids too short", func(d *FrozenData) { d.Kids = d.Kids[:1] }, "Kids has"},
		{"kids too long", func(d *FrozenData) { d.Kids = append(d.Kids, 0) }, "Kids has"},
		{"child is self", func(d *FrozenData) { d.Kids[0] = 2 }, "child"},
		{"child negative", func(d *FrozenData) { d.Kids[1] = -3 }, "child"},
		{"root out of range", func(d *FrozenData) { d.Root = 3 }, "root"},
		{"root negative", func(d *FrozenData) { d.Root = -1 }, "root"},
	}
	for _, tc := range cases {
		d := valid()
		tc.mutate(&d)
		_, err := FrozenFromData(d)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errPart)
		}
	}
}

// TestFrozenDataOrderingViolation: an internal child at a level not
// strictly deeper than its parent is rejected (the ordered-diagram
// property), even though indices alone are topological.
func TestFrozenDataOrderingViolation(t *testing.T) {
	d := FrozenData{
		Domains: []int32{2, 2},
		// Node 2 at level 1, node 3 at level 1 with node 2 as a child:
		// topological by index but not ordered by level.
		Levels: []int32{2, 2, 1, 1},
		Kids:   []int32{0, 1, 2, 1},
		Root:   3,
	}
	if _, err := FrozenFromData(d); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Fatalf("ordering violation not rejected: %v", err)
	}
}

// TestFrozenDataRejectsHostileLayouts feeds FrozenFromData inputs aimed
// at the compaction into distinct children and slot maps: a domain
// over MaxDomain, child arrays that do not cover the values, and (on a
// compacted arena, since the serialized form has no slots) a slot
// index past the node's distinct children. Each must be an error, not
// a panic.
func TestFrozenDataRejectsHostileLayouts(t *testing.T) {
	cases := []struct {
		name    string
		d       FrozenData
		errPart string
	}{
		{"domain over the limit", FrozenData{Domains: []int32{MaxDomain + 1}, Levels: []int32{1, 1}}, "over the limit"},
		{"huge domain, no children", FrozenData{Domains: []int32{1<<31 - 1}, Levels: []int32{1, 1, 0}, Root: 2}, "over the limit"},
		{"children short of the values", FrozenData{Domains: []int32{3, 2}, Levels: []int32{2, 2, 1, 0}, Kids: []int32{0, 1, 2, 0}, Root: 3}, "Kids has"},
		{"children past the values", FrozenData{Domains: []int32{3, 2}, Levels: []int32{2, 2, 1, 0}, Kids: []int32{0, 1, 2, 0, 1, 1}, Root: 3}, "Kids has"},
		{"wide child out of range", FrozenData{Domains: []int32{300}, Levels: []int32{1, 1, 0}, Kids: append(make([]int32, 299), 7), Root: 2}, "child"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			_, err := FrozenFromData(tc.d)
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.errPart)
			}
		}()
	}

	for _, wide := range []bool{false, true} {
		dom := int32(3)
		if wide {
			dom = 300
		}
		kids := make([]int32, dom)
		kids[1] = 1
		f, err := FrozenFromData(FrozenData{Domains: []int32{dom}, Levels: []int32{1, 1, 0}, Kids: kids, Root: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.check(); err != nil {
			t.Fatalf("wide=%v: compacted arena fails its check: %v", wide, err)
		}
		// Node 2 has the distinct children {False, True}; point value 2
		// at a third.
		if wide {
			f.slots16[2] = 2
		} else {
			f.slots8[2] = 2
		}
		if err := f.check(); err == nil || !strings.Contains(err.Error(), "distinct children") {
			t.Errorf("wide=%v: slot past the distinct children: error %v", wide, err)
		}
	}
}

// TestWideDomainRoundTrip builds diagrams with a level of more than 256
// values, where slot maps take two bytes, and checks that freezing,
// serializing and compacting again keep every answer.
func TestWideDomainRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	domains := []int{2, 300, 5}
	for trial := 0; trial < 10; trial++ {
		m := MustNew(domains)
		var level2 []Node
		for range 4 {
			kids := make([]Node, domains[2])
			for v := range kids {
				kids[v] = Node(rng.Intn(2))
			}
			n, err := m.MkNode(2, kids)
			if err != nil {
				t.Fatal(err)
			}
			level2 = append(level2, n)
		}
		var level1 []Node
		for range 3 {
			kids := make([]Node, domains[1])
			for v := range kids {
				kids[v] = level2[rng.Intn(len(level2))]
			}
			n, err := m.MkNode(1, kids)
			if err != nil {
				t.Fatal(err)
			}
			level1 = append(level1, n)
		}
		root, err := m.MkNode(0, []Node{level1[0], level1[1+rng.Intn(2)]})
		if err != nil {
			t.Fatal(err)
		}
		f := m.Freeze(root)
		if !f.wide {
			t.Fatal("a 300-value level did not select two-byte slots")
		}
		g, err := FrozenFromData(f.Data())
		if err != nil {
			t.Fatal(err)
		}
		if g.Data().Root != f.Data().Root || !slices.Equal(g.Data().Kids, f.Data().Kids) {
			t.Fatal("wide snapshot does not survive serialization")
		}
		probs := randomProbs(m, rng)
		pf, _ := f.Prob(probs)
		pg, _ := g.Prob(probs)
		if pf != pg {
			t.Fatalf("Prob %v after the round trip, %v before", pg, pf)
		}
		assign := make([]int, len(domains))
		for range 50 {
			for l := range assign {
				assign[l] = rng.Intn(domains[l])
			}
			want, _ := m.Eval(root, assign)
			if got, _ := f.Eval(assign); got != want {
				t.Fatalf("frozen Eval%v = %v, manager %v", assign, got, want)
			}
			if got, _ := g.Eval(assign); got != want {
				t.Fatalf("decoded Eval%v = %v, manager %v", assign, got, want)
			}
		}
	}
}
