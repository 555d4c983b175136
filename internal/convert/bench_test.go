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
