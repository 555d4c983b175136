package yield

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

// allBitKinds lists the five bit-group orderings.
var allBitKinds = []order.BitKind{order.BitML, order.BitLM, order.BitTopology, order.BitWeight, order.BitH4}

// checkConversionLayout builds sys under opts and checks the layout of
// the converted ROMDD: Freeze adopts the converter's arrays without
// copying, and the snapshot equals both the one build returns and the
// one of the independent direct-MDD route, which Freeze numbers by its
// own post-order walk. The converter must therefore create the ROMDD
// nodes in that post-order — children in value order — under every
// variable ordering.
func checkConversionLayout(t *testing.T, name string, sys *System, opts Options) {
	t.Helper()
	md, err := build(sys, opts)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	p, plan := md.p, md.plan
	g, err := encode.BuildG(sys.FaultTree, p.m)
	if err != nil {
		t.Fatal(err)
	}
	bm := bdd.New(g.Netlist.NumInputs())
	broot, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	if err != nil {
		t.Fatal(err)
	}
	groupOf, bitOf := groupMeta(g)
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		t.Fatal(err)
	}
	mm := mdd.MustNew(spec.Domains)
	mroot, err := convert.ToMDD(bm, broot, mm, spec)
	if err != nil {
		t.Fatal(err)
	}
	converted := mm.Freeze(mroot)
	// Two adopted snapshots share the manager's arrays; two copies do
	// not.
	if !mm.IsTerminal(mroot) && unsafe.SliceData(converted.Shape().Levels) != unsafe.SliceData(mm.Freeze(mroot).Shape().Levels) {
		t.Errorf("%s: Freeze copied the converted ROMDD", name)
	}
	dm, droot, err := buildDirectMDD(sys.FaultTree, p.m, len(sys.Components), plan.GroupSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct := dm.Freeze(droot).Data()
	if !reflect.DeepEqual(converted.Data(), direct) {
		t.Errorf("%s: converted ROMDD (%d nodes) and direct ROMDD (%d nodes) freeze differently",
			name, len(converted.Data().Levels), len(direct.Levels))
	}
	if !reflect.DeepEqual(md.frozen.Data(), direct) {
		t.Errorf("%s: build's snapshot differs from the direct ROMDD's", name)
	}
}

// TestConversionLayoutEveryOrdering checks the conversion layout on the
// oracle differential's trees under all 17 compatible MV×bit
// orderings.
func TestConversionLayoutEveryOrdering(t *testing.T) {
	for _, tc := range differentialCases() {
		for _, mv := range allMVKinds {
			for _, bits := range allBitKinds {
				if !order.Compatible(mv, bits) {
					continue
				}
				opts := tc.opts
				opts.MVOrder, opts.BitOrder = mv, bits
				checkConversionLayout(t, fmt.Sprintf("%s under %v/%v", tc.name, mv, bits), tc.sys, opts)
			}
		}
	}
}
