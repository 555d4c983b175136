package yield

import (
	"socyield/internal/bdd"
	"socyield/internal/convert"
	"socyield/internal/mdd"
	"socyield/internal/obs"
)

// EngineStats aggregates the instrumentation of one evaluation's
// decision-diagram engines: what the ROBDD apply cache and unique
// table did during compilation, what the MDD unique table did during
// conversion, and how much per-layer work the conversion itself
// performed. It is cheap to collect (plain counter snapshots), so it is
// filled in on every run; Options.Recorder additionally streams the
// same data into a metrics registry.
type EngineStats struct {
	// BDD snapshots the coded-ROBDD manager after compilation.
	BDD bdd.Stats
	// MDD snapshots the ROMDD manager after conversion (or direct
	// construction on the ablation route).
	MDD mdd.BuildStats
	// Convert carries the per-layer conversion work (entry nodes per MV
	// level, codeword simulation steps). Empty on routes that skip the
	// conversion.
	Convert convert.Stats
	// CompilePeakLive and ConvertPeakLive split the ROBDD manager's
	// live-node high-water mark by pipeline phase: the peak reached
	// while compiling the coded ROBDD, and the peak reached afterwards
	// while the conversion (or the direct coded-ROBDD evaluation) reads
	// it. Result.ROBDDPeak is their maximum.
	CompilePeakLive int
	ConvertPeakLive int
	// ROMDDPerLevel is the final ROMDD's node count per MV level;
	// ROMDDMaxWidth its widest level.
	ROMDDPerLevel []int
	ROMDDMaxWidth int
	// ROBDDToROMDDRatio is CodedROBDDSize / ROMDDSize — the paper's
	// consensus measurement that the coded ROBDD is the larger of the
	// two (0 when either size is unknown).
	ROBDDToROMDDRatio float64
	// Heap follows the Go heap across the compile → convert boundary.
	// Zero on routes that compile no coded ROBDD.
	Heap HeapStats
}

// HeapStats answers which phase of a build holds its peak heap, and
// whether the collection between compile and convert ran. Heap
// readings are bytes in Go heap objects, live or not yet swept
// (runtime/metrics /memory/classes/heap/objects:bytes), and include
// whatever else the process holds.
type HeapStats struct {
	// CompileEnd is read once the compile has released its tables,
	// AfterReclaim once the reclaim has run or declined (then about
	// CompileEnd), and ConvertEnd once the ROMDD is frozen.
	CompileEnd   uint64
	AfterReclaim uint64
	ConvertEnd   uint64
	// Released is the bytes bdd.Manager.Release dropped, Reserved the
	// bound the conversion's sizing walk put on the bytes of the ROMDD
	// (its reservation plus at most one distinct child per value), and
	// Rest the rest of the live heap the reclaim weighed their sum
	// against.
	Released uint64
	Reserved uint64
	Rest     uint64
	// Reclaimed reports whether the build collected before converting.
	Reclaimed bool
	// FrozenBytes is the bytes the frozen ROMDD holds: what the built
	// model costs while it is cached.
	FrozenBytes uint64
}

// publish flushes the engine stats into a metrics registry. Counter
// names accumulate across runs sharing one registry; gauges reflect the
// most recent run. No-op when rec is nil.
func (s *EngineStats) publish(rec *obs.Registry) {
	if rec == nil {
		return
	}
	rec.Counter("bdd.apply_cache_hits").Add(s.BDD.ApplyCacheHits)
	rec.Counter("bdd.apply_cache_misses").Add(s.BDD.ApplyCacheMisses)
	rec.Counter("bdd.unique_table_hits").Add(s.BDD.UniqueTableHits)
	rec.Counter("bdd.unique_table_growths").Add(s.BDD.UniqueTableGrowths)
	rec.Counter("bdd.nodes_created").Add(s.BDD.NodesCreated)
	rec.Counter("bdd.gc_runs").Add(int64(s.BDD.GCs))
	rec.Counter("bdd.gc_freed").Add(s.BDD.GCFreed)
	rec.Gauge("bdd.live").Set(int64(s.BDD.Live))
	rec.Gauge("bdd.peak_live").SetMax(int64(s.BDD.PeakLive))
	rec.Gauge("bdd.peak_live_compile").SetMax(int64(s.CompilePeakLive))
	rec.Gauge("bdd.peak_live_convert").SetMax(int64(s.ConvertPeakLive))
	rec.Gauge("bdd.arena_nodes").Set(int64(s.BDD.ArenaNodes))
	rec.Gauge("bdd.unique_table_buckets").Set(int64(s.BDD.UniqueTableBuckets))
	rec.Gauge("bdd.apply_cache_entries").Set(int64(s.BDD.ApplyCacheSize))

	rec.Counter("mdd.unique_table_hits").Add(s.MDD.UniqueTableHits)
	rec.Counter("mdd.nodes_created").Add(s.MDD.NodesCreated)
	rec.Counter("mdd.reductions").Add(s.MDD.Reductions)
	rec.Counter("mdd.apply_memo_hits").Add(s.MDD.ApplyMemoHits)
	rec.Counter("mdd.apply_memo_misses").Add(s.MDD.ApplyMemoMisses)
	rec.Gauge("mdd.nodes").Set(int64(s.MDD.Nodes))

	var entries int64
	for _, n := range s.Convert.EntryNodes {
		entries += n
	}
	rec.Counter("convert.entry_nodes").Add(entries)
	rec.Counter("convert.sim_steps").Add(s.Convert.SimSteps)
	rec.Gauge("romdd.max_width").Set(int64(s.ROMDDMaxWidth))
	if s.ROBDDToROMDDRatio > 0 {
		rec.FloatGauge("convert.robdd_to_romdd_ratio").Set(s.ROBDDToROMDDRatio)
	}

	if s.Heap.CompileEnd > 0 {
		rec.Gauge("build.heap_compile_bytes").Set(int64(s.Heap.CompileEnd))
		rec.Gauge("build.heap_reclaim_bytes").Set(int64(s.Heap.AfterReclaim))
		rec.Gauge("build.heap_convert_bytes").Set(int64(s.Heap.ConvertEnd))
		rec.Gauge("bdd.released_bytes").Set(int64(s.Heap.Released))
		reclaims := rec.Counter("build.reclaims")
		if s.Heap.Reclaimed {
			reclaims.Add(1)
		}
		rec.Gauge("mdd.frozen_bytes").Set(int64(s.Heap.FrozenBytes))
	}
}
