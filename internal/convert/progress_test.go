package convert

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

func TestConvertReportsProgress(t *testing.T) {
	p := buildPipeline(t, fig2FaultTree(), 3, order.MVWeight, order.BitML)
	mm, err := mdd.New(p.spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	bs := obs.NewBuildState()
	bs.StartPhase(obs.BuildConvert, 0)
	var st Stats
	if _, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &st, WithBuildState(bs)); err != nil {
		t.Fatalf("ToMDDWithStats: %v", err)
	}
	snap := bs.Snapshot()
	// The sizing walk publishes the total before the first entry node
	// converts; once the conversion ends it is the count converted.
	var entries int64
	for _, n := range st.EntryNodes {
		entries += int64(n)
	}
	if snap.PhaseTotal != entries || snap.PhaseDone != entries {
		t.Errorf("total = %d, done = %d, want both the %d entry nodes", snap.PhaseTotal, snap.PhaseDone, entries)
	}
}

// TestStatsResetPerConversion checks that a Stats reused across
// conversions reports the last one alone.
func TestStatsResetPerConversion(t *testing.T) {
	p := buildPipeline(t, fig2FaultTree(), 3, order.MVWeight, order.BitLM)
	var first, st Stats
	for i := range 2 {
		mm, err := mdd.New(p.spec.Domains)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &st); err != nil {
			t.Fatalf("ToMDDWithStats: %v", err)
		}
		if i == 0 {
			first = st
			first.EntryNodes = slices.Clone(st.EntryNodes)
		}
	}
	if st.SimSteps == 0 || st.SimSteps != first.SimSteps || !slices.Equal(st.EntryNodes, first.EntryNodes) {
		t.Errorf("second conversion reports %d steps and entry nodes %v, first %d and %v",
			st.SimSteps, st.EntryNodes, first.SimSteps, first.EntryNodes)
	}
}

// TestSizeBoundsConversion checks that the sizing walk bounds the
// entry nodes and child entries of the conversion from above under
// every MV×bit ordering, that the memo has one slot per entry handle,
// and that the conversion fits in the arena it reserves.
func TestSizeBoundsConversion(t *testing.T) {
	for _, mv := range []order.MVKind{order.MVWV, order.MVWVR, order.MVVW, order.MVVRW, order.MVWeight} {
		for _, bits := range []order.BitKind{order.BitML, order.BitLM} {
			p := buildPipeline(t, fig2FaultTree(), 3, mv, bits)
			mm := mdd.MustNew(p.spec.Domains)
			var st Stats
			root, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &st)
			if err != nil {
				t.Fatal(err)
			}
			c := newConverter(p.bm, &p.spec, nil, nil)
			entries, kids := c.size(p.root)
			checkMemoRanks(t, fmt.Sprintf("%v/%v", mv, bits), c, entries)
			var converted int64
			for _, n := range st.EntryNodes {
				converted += n
			}
			f := mm.Freeze(root)
			if converted > entries || int64(len(f.Data().Kids)) > kids {
				t.Errorf("%v/%v: sized %d entries and %d children, converted %d and %d",
					mv, bits, entries, kids, converted, len(f.Data().Kids))
			}
			if _, values := mm.Capacity(); values != int(kids) {
				t.Errorf("%v/%v: slot maps hold %d entries, reserved %d", mv, bits, values, kids)
			}
		}
	}
}

// TestToMDDNodeLimit checks that an ROMDD node limit aborts the
// conversion with mdd.ErrNodeLimit.
func TestToMDDNodeLimit(t *testing.T) {
	p := buildPipeline(t, fig2FaultTree(), 3, order.MVWeight, order.BitML)
	mm := mdd.MustNew(p.spec.Domains, mdd.WithNodeLimit(4))
	if _, err := ToMDD(p.bm, p.root, mm, p.spec); !errors.Is(err, mdd.ErrNodeLimit) {
		t.Errorf("err = %v, want mdd.ErrNodeLimit", err)
	}
}
