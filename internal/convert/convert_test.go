package convert

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

// pipeline assembles the full mini-pipeline used by the yield method:
// fault tree F → G netlist → ordering plan → coded ROBDD → Spec.
type pipeline struct {
	g    *encode.GFunc
	bm   *bdd.Manager
	root bdd.Node
	spec Spec
	plan *order.Plan
}

func buildPipeline(t *testing.T, f *logic.Netlist, m int, mv order.MVKind, bits order.BitKind) *pipeline {
	t.Helper()
	g, err := encode.BuildG(f, m)
	if err != nil {
		t.Fatalf("BuildG: %v", err)
	}
	plan, err := order.Assemble(g.Netlist, g.Groups, mv, bits)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bm := bdd.New(g.Netlist.NumInputs())
	root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	groupOf := make([]int, g.Netlist.NumInputs())
	bitOf := make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		nb := len(grp.Bits)
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(nb - 1 - j)
		}
	}
	spec, err := SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		t.Fatalf("SpecFromPlanLevels: %v", err)
	}
	return &pipeline{g: g, bm: bm, root: root, spec: spec, plan: plan}
}

func fig2FaultTree() *logic.Netlist {
	f := logic.New()
	x1, x2, x3 := f.Input("x1"), f.Input("x2"), f.Input("x3")
	f.SetOutput(f.Or(f.And(x1, x2), x3))
	return f
}

// forAllMVNatural enumerates (w, v_1..v_M) in natural order.
func forAllMVNatural(c, m int, fn func(mv []int)) {
	mv := make([]int, m+1)
	var rec func(l int)
	rec = func(l int) {
		if l == m+1 {
			fn(mv)
			return
		}
		limit := c
		if l == 0 {
			limit = m + 2
		}
		for val := 0; val < limit; val++ {
			mv[l] = val
			rec(l + 1)
		}
	}
	rec(0)
}

// mvToMDDAssign reorders a natural-order MV assignment into MV-level
// order per the plan.
func mvToMDDAssign(plan *order.Plan, mv []int) []int {
	out := make([]int, len(mv))
	for mvLevel, gi := range plan.GroupSeq {
		out[mvLevel] = mv[gi]
	}
	return out
}

func TestToMDDMatchesNetlistAllOrderings(t *testing.T) {
	f := fig2FaultTree()
	for _, mv := range []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVWeight} {
		for _, bits := range []order.BitKind{order.BitML, order.BitLM} {
			t.Run(fmt.Sprintf("%v-%v", mv, bits), func(t *testing.T) {
				p := buildPipeline(t, f, 2, mv, bits)
				domains := make([]int, len(p.spec.Domains))
				copy(domains, p.spec.Domains)
				mm := mdd.MustNew(domains)
				root, err := ToMDD(p.bm, p.root, mm, p.spec)
				if err != nil {
					t.Fatalf("ToMDD: %v", err)
				}
				forAllMVNatural(3, 2, func(mvAssign []int) {
					bin, err := p.g.DecodeAssignment(mvAssign)
					if err != nil {
						t.Fatalf("DecodeAssignment: %v", err)
					}
					want, err := p.g.Netlist.Eval(bin)
					if err != nil {
						t.Fatalf("netlist eval: %v", err)
					}
					got, err := mm.Eval(root, mvToMDDAssign(p.plan, mvAssign))
					if err != nil {
						t.Fatalf("mdd eval: %v", err)
					}
					if got != want {
						t.Fatalf("MV %v: MDD %v, netlist %v", mvAssign, got, want)
					}
				})
			})
		}
	}
}

func TestProbTriangle(t *testing.T) {
	// The converted ROMDD must carry the G netlist's truth: its frozen
	// probability pass equals the exhaustive expectation over the
	// netlist.
	f := fig2FaultTree()
	p := buildPipeline(t, f, 2, order.MVWeight, order.BitML)
	// W: Q'_0..Q'_2 and tail; V: component distribution.
	probsNatural := [][]float64{
		{0.5, 0.3, 0.15, 0.05},
		{0.2, 0.3, 0.5},
		{0.2, 0.3, 0.5},
	}
	// Reorder rows into MV-level order.
	probs := make([][]float64, len(probsNatural))
	for mvLevel, gi := range p.plan.GroupSeq {
		probs[mvLevel] = probsNatural[gi]
	}
	// Reference: exhaustive expectation.
	want := 0.0
	forAllMVNatural(3, 2, func(mv []int) {
		bin, _ := p.g.DecodeAssignment(mv)
		v, _ := p.g.Netlist.Eval(bin)
		if v {
			prob := 1.0
			for gi, val := range mv {
				prob *= probsNatural[gi][val]
			}
			want += prob
		}
	})
	mm := mdd.MustNew(p.spec.Domains)
	root, err := ToMDD(p.bm, p.root, mm, p.spec)
	if err != nil {
		t.Fatalf("ToMDD: %v", err)
	}
	got, err := mm.Freeze(root).Prob(probs)
	if err != nil {
		t.Fatalf("Frozen.Prob: %v", err)
	}
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("ROMDD Prob = %v, want %v", got, want)
	}
}

func TestToMDDPrunesUnusedCodewords(t *testing.T) {
	// C = 3 uses 2 bits per v with codeword 3 unused: conversion must
	// produce a well-formed ROMDD (domain 3) regardless, with every
	// node's kids within domain — guaranteed by construction; check
	// that evaluation never needs the phantom value and that the size
	// is sane.
	f := fig2FaultTree()
	p := buildPipeline(t, f, 2, order.MVWV, order.BitML)
	mm := mdd.MustNew(p.spec.Domains)
	root, err := ToMDD(p.bm, p.root, mm, p.spec)
	if err != nil {
		t.Fatalf("ToMDD: %v", err)
	}
	if sz := mm.Size(root); sz < 4 || sz > 40 {
		t.Errorf("Fig2-style ROMDD size = %d, outside sane bounds", sz)
	}
	st := mm.Freeze(root).ComputeStats()
	for lv, cnt := range st.PerLevel {
		if cnt < 0 {
			t.Errorf("level %d count %d", lv, cnt)
		}
	}
}

func TestToMDDSmallerThanCodedROBDD(t *testing.T) {
	// The paper's headline structural observation: the coded ROBDD is
	// substantially larger than the ROMDD.
	f := logic.New()
	xs := make([]logic.GateID, 6)
	for i := range xs {
		xs[i] = f.Input(fmt.Sprintf("x%d", i+1))
	}
	f.SetOutput(f.AtLeast(2, xs...))
	for _, m := range []int{2, 3} {
		g, err := encode.BuildG(f, m)
		if err != nil {
			t.Fatalf("BuildG: %v", err)
		}
		plan, err := order.Assemble(g.Netlist, g.Groups, order.MVWeight, order.BitML)
		if err != nil {
			t.Fatalf("Assemble: %v", err)
		}
		bm := bdd.New(g.Netlist.NumInputs())
		root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		groupOf := make([]int, g.Netlist.NumInputs())
		bitOf := make([]uint, g.Netlist.NumInputs())
		for gi, grp := range g.Groups {
			nb := len(grp.Bits)
			for j, ord := range grp.Bits {
				groupOf[ord] = gi
				bitOf[ord] = uint(nb - 1 - j)
			}
		}
		spec, err := SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		mm := mdd.MustNew(spec.Domains)
		mroot, err := ToMDD(bm, root, mm, spec)
		if err != nil {
			t.Fatalf("ToMDD: %v", err)
		}
		if bs, ms := bm.Size(root), mm.Size(mroot); ms >= bs {
			t.Errorf("M=%d: ROMDD size %d not smaller than coded ROBDD size %d", m, ms, bs)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := Spec{
		LevelGroup: []int{0, 0, 1, 1},
		LevelBit:   []uint{1, 0, 1, 0},
		Domains:    []int{4, 3},
	}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Spec
	}{
		{"mismatched lengths", Spec{LevelGroup: []int{0}, LevelBit: nil, Domains: []int{2}}},
		{"no domains", Spec{LevelGroup: []int{}, LevelBit: []uint{}, Domains: nil}},
		{"group out of range", Spec{LevelGroup: []int{0, 5}, LevelBit: []uint{0, 0}, Domains: []int{2, 2}}},
		{"decreasing groups", Spec{LevelGroup: []int{1, 0}, LevelBit: []uint{0, 0}, Domains: []int{2, 2}}},
		{"skipped group", Spec{LevelGroup: []int{0, 2}, LevelBit: []uint{0, 0}, Domains: []int{2, 2, 2}}},
		{"first not zero", Spec{LevelGroup: []int{1, 1}, LevelBit: []uint{0, 0}, Domains: []int{2, 2}}},
		{"uncovered tail group", Spec{LevelGroup: []int{0, 0}, LevelBit: []uint{1, 0}, Domains: []int{4, 2}}},
		{"domain too small", Spec{LevelGroup: []int{0}, LevelBit: []uint{0}, Domains: []int{1}}},
		{"domain exceeds bits", Spec{LevelGroup: []int{0}, LevelBit: []uint{0}, Domains: []int{3}}},
		{"split group", Spec{LevelGroup: []int{0, 1, 0}, LevelBit: []uint{0, 0, 1}, Domains: []int{4, 2}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestToMDDManagerMismatch(t *testing.T) {
	f := fig2FaultTree()
	p := buildPipeline(t, f, 1, order.MVWV, order.BitML)
	wrong := mdd.MustNew([]int{2, 2}) // wrong domain count/sizes
	if _, err := ToMDD(p.bm, p.root, wrong, p.spec); err == nil {
		t.Error("domain mismatch accepted")
	}
	short := Spec{LevelGroup: []int{0}, LevelBit: []uint{0}, Domains: []int{2}}
	mm := mdd.MustNew([]int{2})
	if _, err := ToMDD(p.bm, p.root, mm, short); err == nil {
		t.Error("spec/manager level-count mismatch accepted")
	}
}

// TestToMDDTerminalRoots checks that constant coded ROBDDs convert to
// the matching ROMDD terminals.
func TestToMDDTerminalRoots(t *testing.T) {
	spec := Spec{LevelGroup: []int{0, 0}, LevelBit: []uint{1, 0}, Domains: []int{3}}
	bm := bdd.New(2)
	mm := mdd.MustNew(spec.Domains)
	for root, want := range map[bdd.Node]mdd.Node{bdd.False: mdd.False, bdd.True: mdd.True} {
		got, err := ToMDD(bm, root, mm, spec)
		if err != nil {
			t.Fatalf("terminal root %d: %v", root, err)
		}
		if got != want {
			t.Errorf("terminal root %d converted to %d, want %d", root, got, want)
		}
	}
}

// randomMonotoneFaultTree returns a random monotone fault tree over c
// components (realistic structure functions are monotone).
func randomMonotoneFaultTree(rng *rand.Rand, c int) *logic.Netlist {
	f := logic.New()
	pool := make([]logic.GateID, 0, 32)
	for i := 0; i < c; i++ {
		pool = append(pool, f.Input(fmt.Sprintf("x%d", i+1)))
	}
	for i := 0; i < 6+rng.Intn(8); i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			pool = append(pool, f.And(a, b))
		} else {
			pool = append(pool, f.Or(a, b))
		}
	}
	f.SetOutput(pool[len(pool)-1])
	return f
}

// Property: for random fault trees, orderings and distributions, the
// converted ROMDD agrees with the G netlist on every assignment, and
// its probability equals exhaustive enumeration over the netlist.
func TestQuickConversionTriangle(t *testing.T) {
	mvKinds := []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVTopology, order.MVWeight, order.MVH4}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 3 + rng.Intn(3) // 3..5 components
		m := 1 + rng.Intn(2) // M = 1..2
		f := randomMonotoneFaultTree(rng, c)
		mvk := mvKinds[rng.Intn(len(mvKinds))]
		bk := order.BitML
		if rng.Intn(2) == 0 {
			bk = order.BitLM
		}
		g, err := encode.BuildG(f, m)
		if err != nil {
			return false
		}
		plan, err := order.Assemble(g.Netlist, g.Groups, mvk, bk)
		if err != nil {
			return false
		}
		bm := bdd.New(g.Netlist.NumInputs())
		root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
		if err != nil {
			return false
		}
		groupOf := make([]int, g.Netlist.NumInputs())
		bitOf := make([]uint, g.Netlist.NumInputs())
		for gi, grp := range g.Groups {
			nb := len(grp.Bits)
			for j, ord := range grp.Bits {
				groupOf[ord] = gi
				bitOf[ord] = uint(nb - 1 - j)
			}
		}
		spec, err := SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
		if err != nil {
			return false
		}
		// Random distributions (natural order), reordered per plan.
		natural := make([][]float64, len(g.Domains()))
		for gi, d := range g.Domains() {
			row := make([]float64, d)
			sum := 0.0
			for v := range row {
				row[v] = rng.Float64() + 0.05
				sum += row[v]
			}
			for v := range row {
				row[v] /= sum
			}
			natural[gi] = row
		}
		probs := make([][]float64, len(natural))
		for mvLevel, gi := range plan.GroupSeq {
			probs[mvLevel] = natural[gi]
		}
		mm := mdd.MustNew(spec.Domains)
		mroot, err := ToMDD(bm, root, mm, spec)
		if err != nil {
			return false
		}
		want := 0.0
		okEnum := true
		forAllMVNatural(c, m, func(mv []int) {
			bin, err := g.DecodeAssignment(mv)
			if err != nil {
				okEnum = false
				return
			}
			v, err := g.Netlist.Eval(bin)
			if err != nil {
				okEnum = false
				return
			}
			if mv, err := mm.Eval(mroot, mvToMDDAssign(plan, mv)); err != nil || mv != v {
				okEnum = false
				return
			}
			if v {
				prob := 1.0
				for gi, val := range mv {
					prob *= natural[gi][val]
				}
				want += prob
			}
		})
		if !okEnum {
			return false
		}
		got, err := mm.Freeze(mroot).Prob(probs)
		return err == nil && math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
