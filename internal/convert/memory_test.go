package convert_test

import (
	"slices"
	"testing"
	"unsafe"

	"socyield/internal/bdd"
	"socyield/internal/benchmarks"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

// codedROBDD compiles a benchmark system's coded ROBDD at truncation
// point m under the default orderings.
func codedROBDD(t *testing.T, name string, m int) (*bdd.Manager, bdd.Node, convert.Spec) {
	t.Helper()
	sys, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := encode.BuildG(sys.FaultTree, m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := order.Assemble(g.Netlist, g.Groups, order.MVWeight, order.BitML)
	if err != nil {
		t.Fatal(err)
	}
	bm := bdd.New(g.Netlist.NumInputs())
	root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	if err != nil {
		t.Fatal(err)
	}
	groupOf := make([]int, g.Netlist.NumInputs())
	bitOf := make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(len(grp.Bits) - 1 - j)
		}
	}
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		t.Fatal(err)
	}
	return bm, root, spec
}

// freeze freezes the diagram rooted at root and reports whether
// Freeze adopted the manager's arrays rather than copying them: two
// adopted snapshots share the manager's arrays, two copies do not.
func freeze(mm *mdd.Manager, root mdd.Node) (*mdd.Frozen, bool) {
	f := mm.Freeze(root)
	return f, unsafe.SliceData(f.Shape().Levels) == unsafe.SliceData(mm.Freeze(root).Shape().Levels)
}

func sameData(a, b mdd.FrozenData) bool {
	return slices.Equal(a.Domains, b.Domains) && slices.Equal(a.Levels, b.Levels) &&
		slices.Equal(a.Kids, b.Kids) && a.Root == b.Root
}

// TestToMDDAllocsIndependentOfSize checks that the serial conversion
// allocates nothing per entry node: converting into a manager that
// already holds the result allocates the same number of times for a
// small and a much larger model.
func TestToMDDAllocsIndependentOfSize(t *testing.T) {
	allocs := func(name string) (float64, int64) {
		bm, root, spec := codedROBDD(t, name, 4)
		mm := mdd.MustNew(spec.Domains)
		var st convert.Stats
		if _, err := convert.ToMDDWithStats(bm, root, mm, spec, &st); err != nil {
			t.Fatal(err)
		}
		var entries int64
		for _, n := range st.EntryNodes {
			entries += n
		}
		// The count is the whole process's, and a GC cycle the larger
		// memo starts now and then adds a stray runtime allocation;
		// averaging over 20 runs rounds those away, while a per-node
		// allocation would add thousands.
		return testing.AllocsPerRun(20, func() {
			if _, err := convert.ToMDDWithStats(bm, root, mm, spec, &st); err != nil {
				t.Fatal(err)
			}
		}), entries
	}
	smallAllocs, small := allocs("MS2")
	largeAllocs, large := allocs("ESEN8x1")
	if large < 4*small {
		t.Fatalf("models too close in size: %d and %d entry nodes", small, large)
	}
	if smallAllocs != largeAllocs {
		t.Fatalf("conversion allocates %v times for %d entry nodes but %v for %d", smallAllocs, small, largeAllocs, large)
	}
}

// TestFreezeAdoptsSerialConversion checks that Freeze adopts the
// arrays of a serial conversion, and that the snapshot equals the one
// the copying path gives once the manager holds a node the root does
// not reach.
func TestFreezeAdoptsSerialConversion(t *testing.T) {
	cases := []string{"ESEN4x2", "MS6"}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, name := range cases {
		bm, root, spec := codedROBDD(t, name, 6)
		mm := mdd.MustNew(spec.Domains)
		mroot, err := convert.ToMDD(bm, root, mm, spec)
		if err != nil {
			t.Fatal(err)
		}
		adopted, shared := freeze(mm, mroot)
		if !shared {
			t.Fatalf("%s: Freeze copied a serial conversion", name)
		}
		if adopted.Size() != mm.Size(mroot) {
			t.Fatalf("%s: adopted snapshot has %d nodes, the manager's diagram %d", name, adopted.Size(), mm.Size(mroot))
		}
		// An unreachable node breaks the layout and forces the copy.
		nodes := mm.NumNodes()
		for lv := 0; lv < mm.NumVars() && mm.NumNodes() == nodes; lv++ {
			for v := 0; v < mm.Domain(lv) && mm.NumNodes() == nodes; v++ {
				if _, err := mm.LiteralEq(lv, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if mm.NumNodes() == nodes {
			t.Fatalf("%s: no unreachable node could be added", name)
		}
		copied, shared := freeze(mm, mroot)
		if shared {
			t.Fatalf("%s: Freeze adopted a manager holding an unreachable node", name)
		}
		if !sameData(adopted.Data(), copied.Data()) {
			t.Fatalf("%s: adopted and copied snapshots differ", name)
		}
	}
}

// TestToMDDSizesArenaExactly checks that on the benchmark systems the
// sizing walk counts exactly the ROMDD the conversion builds: the
// reserved node arrays and slot maps end up full, never regrown.
func TestToMDDSizesArenaExactly(t *testing.T) {
	for _, name := range []string{"MS2", "ESEN4x1"} {
		bm, root, spec := codedROBDD(t, name, 4)
		mm := mdd.MustNew(spec.Domains)
		mroot, err := convert.ToMDD(bm, root, mm, spec)
		if err != nil {
			t.Fatal(err)
		}
		kids := mm.Freeze(mroot).Data().Kids
		nodes, values := mm.Capacity()
		if values != len(kids) || nodes != mm.NumNodes() {
			t.Errorf("%s: arena holds %d nodes and %d values, the ROMDD uses %d and %d", name, nodes, values, mm.NumNodes(), len(kids))
		}
	}
}
