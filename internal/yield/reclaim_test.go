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

// TestBuildReclaimsOnlyWhenTablesDominate builds ESEN4x4 twice. In a
// small heap the tables the compile releases outweigh the rest, so
// the build forces exactly one collection before converting. While the
// test holds a live ballast eight times their size, the same build
// forces none. Both builds publish their heap readings.
func TestBuildReclaimsOnlyWhenTablesDominate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	sys, err := benchmarks.ByName("ESEN4x4")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (yield.HeapStats, uint64, obs.Snapshot) {
		t.Helper()
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
	check := func(label string, h yield.HeapStats, snap obs.Snapshot, reclaims int64) {
		t.Helper()
		if h.Released == 0 || h.CompileEnd == 0 || h.AfterReclaim == 0 || h.ConvertEnd == 0 {
			t.Errorf("%s: heap readings %+v, want all non-zero", label, h)
		}
		for name, want := range map[string]uint64{
			"bdd.released_bytes":       h.Released,
			"build.heap_compile_bytes": h.CompileEnd,
			"build.heap_reclaim_bytes": h.AfterReclaim,
			"build.heap_convert_bytes": h.ConvertEnd,
		} {
			if got := snap.Gauges[name]; got != int64(want) {
				t.Errorf("%s: gauge %s = %d, want %d", label, name, got, want)
			}
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
