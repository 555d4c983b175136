package yield_test

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// forcedGCs returns the number of collections forced so far.
func forcedGCs() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// buildESEN4x4 builds ESEN4x4 at NB(2, 3.4), ε = 2e-3 after a
// collection, and returns its heap readings, the collections it forced
// and the registry it published to.
func buildESEN4x4(t *testing.T) (yield.HeapStats, uint64, obs.Snapshot) {
	t.Helper()
	sys, err := benchmarks.ByName("ESEN4x4")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	runtime.GC()
	before := forcedGCs()
	re, err := yield.NewReevaluator(sys, yield.Options{Defects: dist, Epsilon: 2e-3, Recorder: rec})
	forced := forcedGCs() - before
	if err != nil {
		t.Fatal(err)
	}
	return re.Result.Stats.Heap, forced, rec.Snapshot()
}

// TestBuildReclaimsOnlyWhenTablesDominate builds ESEN4x4 twice. In a
// small heap the tables the compile releases and the conversion's
// bound outweigh the rest, so the build forces exactly one collection
// before converting. While the test holds a live ballast eight times
// the tables' size, the same build forces none. Both builds publish
// their heap readings.
func TestBuildReclaimsOnlyWhenTablesDominate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	build := func() (yield.HeapStats, uint64, obs.Snapshot) {
		t.Helper()
		return buildESEN4x4(t)
	}
	check := func(label string, h yield.HeapStats, snap obs.Snapshot, reclaims int64) {
		t.Helper()
		if h.Released == 0 || h.Reserved == 0 || h.Rest == 0 || h.CompileEnd == 0 || h.AfterReclaim == 0 ||
			h.ConvertEnd == 0 || h.FrozenBytes == 0 {
			t.Errorf("%s: heap readings %+v, want all non-zero", label, h)
		}
		for name, want := range map[string]uint64{
			"bdd.released_bytes":       h.Released,
			"build.heap_compile_bytes": h.CompileEnd,
			"build.heap_reclaim_bytes": h.AfterReclaim,
			"build.heap_convert_bytes": h.ConvertEnd,
			"mdd.frozen_bytes":         h.FrozenBytes,
		} {
			if got := snap.Gauges[name]; got != int64(want) {
				t.Errorf("%s: gauge %s = %d, want %d", label, name, got, want)
			}
		}
		// The readings explain the decision.
		if due := yield.ReclaimDue(h.Released, h.Reserved, h.Rest, 100); due != h.Reclaimed {
			t.Errorf("%s: released %d, reserved %d, rest %d bytes make the rule say %v, the build %v",
				label, h.Released, h.Reserved, h.Rest, due, h.Reclaimed)
		}
		if got, ok := snap.Counters["build.reclaims"]; !ok || got != reclaims {
			t.Errorf("%s: counter build.reclaims = %d (present %v), want %d", label, got, ok, reclaims)
		}
	}

	h, forced, snap := build()
	if forced != 1 || !h.Reclaimed {
		t.Fatalf("small heap: build forced %d collections, Reclaimed = %v; want 1 and true (released %d bytes)", forced, h.Reclaimed, h.Released)
	}
	if h.AfterReclaim >= h.CompileEnd {
		t.Errorf("small heap: heap %d bytes after the reclaim, %d before", h.AfterReclaim, h.CompileEnd)
	}
	check("small heap", h, snap, 1)

	ballast := make([]byte, 8*h.Released)
	h, forced, snap = build()
	runtime.KeepAlive(ballast)
	if forced != 0 || h.Reclaimed {
		t.Fatalf("with a %d-byte ballast: build forced %d collections, Reclaimed = %v; want 0 and false", len(ballast), forced, h.Reclaimed)
	}
	check("ballast", h, snap, 0)
}

// TestReclaimRule checks the reclaim rule on the sizes an ESEN8x2 build
// reads at its conversion (NB(2, 3.4), ε = 2e-3, 2-core reference
// host): the released tables alone are below GOGC percent of the rest
// of the heap, so the rule before the conversion's bound joined them
// would not collect; the tables plus the bound are above, so the build
// collects. A four times higher GOGC and GOGC=off do not.
func TestReclaimRule(t *testing.T) {
	const released, reserved, rest = 33_861_272, 93_359_504, 43_443_072
	for _, tc := range []struct {
		released, reserved uint64
		gogc               int64
		want               bool
	}{
		{released, 0, 100, false},
		{released, reserved, 100, true},
		{released, reserved, 400, false},
		{released, reserved, -1, false},
	} {
		if got := yield.ReclaimDue(tc.released, tc.reserved, rest, tc.gogc); got != tc.want {
			t.Errorf("released %d, reserved %d, rest %d, GOGC %d: collect = %v, want %v",
				tc.released, tc.reserved, rest, tc.gogc, got, tc.want)
		}
	}
}
