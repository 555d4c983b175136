package convert

import (
	"fmt"
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

// benchPipeline builds the coded ROBDD of a 2-of-8 threshold system
// once, for conversion benchmarks.
func benchPipeline(b *testing.B) (*bdd.Manager, bdd.Node, Spec) {
	b.Helper()
	f := logic.New()
	xs := make([]logic.GateID, 8)
	for i := range xs {
		xs[i] = f.Input(fmt.Sprintf("x%d", i+1))
	}
	f.SetOutput(f.AtLeast(2, xs...))
	g, err := encode.BuildG(f, 4)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := order.Assemble(g.Netlist, g.Groups, order.MVWeight, order.BitML)
	if err != nil {
		b.Fatal(err)
	}
	bm := bdd.New(g.Netlist.NumInputs())
	root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	return bm, root, spec
}

// mapToMDD is the pre-overhaul reference conversion, memoized with a
// map[bdd.Node]mdd.Node instead of the handle-indexed slices ToMDD
// uses now. It exists only as the benchmark baseline.
func mapToMDD(bm *bdd.Manager, root bdd.Node, mm *mdd.Manager, spec Spec) (mdd.Node, error) {
	memo := make(map[bdd.Node]mdd.Node)
	var err error
	var conv func(n bdd.Node) mdd.Node
	conv = func(n bdd.Node) mdd.Node {
		if err != nil || n == bdd.False {
			return mdd.False
		}
		if n == bdd.True {
			return mdd.True
		}
		if r, ok := memo[n]; ok {
			return r
		}
		g := spec.LevelGroup[bm.Level(n)]
		kids := make([]mdd.Node, spec.Domains[g])
		for val := range kids {
			kids[val] = conv(simulate(bm, &spec, n, g, val, nil))
			if err != nil {
				return mdd.False
			}
		}
		r, mkErr := mm.MkNode(g, kids)
		if mkErr != nil {
			err = mkErr
			return mdd.False
		}
		memo[n] = r
		return r
	}
	out := conv(root)
	return out, err
}

// BenchmarkToMDDMemo compares the handle-indexed slice memo of ToMDD
// against the map memo it replaced.
func BenchmarkToMDDMemo(b *testing.B) {
	bm, root, spec := benchPipeline(b)
	b.Run("slice", func(b *testing.B) {
		for b.Loop() {
			mm, err := mdd.New(spec.Domains)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ToMDD(bm, root, mm, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for b.Loop() {
			mm, err := mdd.New(spec.Domains)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mapToMDD(bm, root, mm, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkToMDD measures the coded-ROBDD → ROMDD layer conversion.
func BenchmarkToMDD(b *testing.B) {
	bm, root, spec := benchPipeline(b)
	b.ResetTimer()
	for b.Loop() {
		mm, err := mdd.New(spec.Domains)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ToMDD(bm, root, mm, spec); err != nil {
			b.Fatal(err)
		}
	}
}
