package yield

import (
	"runtime"
	"runtime/metrics"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// model is the outcome of the one-time build shared by Evaluate and
// NewReevaluator: the prepared model quantities, the variable order,
// the Result filled so far, and the frozen ROMDD.
type model struct {
	p      *prepared
	plan   *order.Plan
	res    *Result
	frozen *mdd.Frozen
}

// build runs the one-time build — preparation, G synthesis, variable
// ordering, coded-ROBDD compilation and ROMDD conversion — one
// BuildState phase per step, filling the Result's phase timings,
// engine statistics and structural sizes. Each phase is timed once:
// its duration goes to Result.Phases and, with Options.Tracer set, the
// same start and duration to a "phase" trace event. The convert phase
// ends by freezing the ROMDD into the immutable snapshot every
// evaluation reads (the manager, with its construction tables, becomes
// garbage), and the ROMDD's statistics are read off that snapshot by
// one linear scan.
//
// Each phase's bookkeeping (the base Result, statistics snapshots,
// diagram sizes, the conversion spec, releasing the build tables) runs
// inside that phase's timing, so the phases account for the whole
// build.
//
// Once the conversion's sizing walk knows what the ROMDD will take,
// reclaim may collect the tables the compile released, so that the
// conversion allocates in memory the build already holds (see
// reclaim).
//
// An error before compilation returns the zero model. A compile or
// convert error returns the model with res consistently filled up to
// the failing phase; callers decide whether to publish it.
func build(sys *System, opts Options) (model, error) {
	bs, tr := opts.BuildState, opts.Tracer
	bs.StartPhase(obs.BuildPrepare, 0)
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	tr.Event("prepare", phaseCat, t0, prepDur, nil)
	if err != nil {
		return model{}, err
	}

	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	var res *Result
	if err == nil {
		res = p.baseResult(g)
	}
	encDur := time.Since(t0)
	tr.Event("encode", phaseCat, t0, encDur, nil)
	if err != nil {
		return model{}, err
	}
	res.Phases.Prepare, res.Phases.Encode = prepDur, encDur

	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	tr.Event("order", phaseCat, t0, res.Phases.Order, nil)
	if err != nil {
		return model{}, err
	}
	md := model{p: p, plan: plan, res: res}

	bs.StartPhase(obs.BuildCompile, 0)
	t0 = time.Now()
	bm := bdd.New(g.Netlist.NumInputs(), bdd.WithNodeLimit(p.opts.NodeLimit))
	broot, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels,
		compile.WithBuildState(bs), compile.WithTracer(tr))
	res.Stats.BDD = bm.Stats()
	res.Stats.CompilePeakLive = bm.ResetPeakLive()
	res.ROBDDPeak = res.Stats.CompilePeakLive
	if err == nil {
		res.CodedROBDDSize = bm.Size(broot)
		// The root is final: conversion reads only the node arena, so
		// the build's cache, unique table, reference counts and
		// traversal scratch go now. They stay in the heap as garbage
		// until a collection ends; the convert phase decides whether
		// to collect them before it allocates.
		res.Stats.Heap.Released = uint64(bm.Release())
		res.Stats.Heap.CompileEnd = readHeap()
	}
	res.Phases.Compile = time.Since(t0)
	tr.Event("compile", phaseCat, t0, res.Phases.Compile, nil)
	if err != nil {
		return md, stageErr("compiling coded ROBDD", err)
	}

	bs.StartPhase(obs.BuildConvert, 0)
	t0 = time.Now()
	defer func() {
		res.Phases.Convert = time.Since(t0)
		tr.Event("convert", phaseCat, t0, res.Phases.Convert, nil)
	}()
	groupOf, bitOf := groupMeta(g)
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		return md, err
	}
	mm, err := mdd.New(spec.Domains, mdd.WithNodeLimit(p.opts.NodeLimit))
	if err != nil {
		return md, err
	}
	heap := &res.Stats.Heap
	mroot, err := convert.ToMDDWithStats(bm, broot, mm, spec, &res.Stats.Convert, convert.WithBuildState(bs),
		convert.BeforeReserve(func(bytes int) {
			heap.Reserved = uint64(bytes)
			heap.Reclaimed, heap.Rest, heap.AfterReclaim = reclaim(heap.Released, heap.Reserved)
		}))
	res.Stats.MDD = mm.BuildStats()
	res.Stats.ConvertPeakLive = bm.PeakLive()
	res.ROBDDPeak = max(res.ROBDDPeak, res.Stats.ConvertPeakLive)
	if err != nil {
		return md, stageErr("converting to ROMDD", err)
	}
	md.frozen = mm.Freeze(mroot)
	heap.ConvertEnd = readHeap()
	heap.FrozenBytes = uint64(md.frozen.Bytes())
	ms := md.frozen.ComputeStats()
	res.ROMDDSize = ms.Nodes
	res.Stats.ROMDDPerLevel = ms.PerLevel
	res.Stats.ROMDDMaxWidth = ms.MaxWidth
	if res.ROMDDSize > 0 {
		res.Stats.ROBDDToROMDDRatio = float64(res.CodedROBDDSize) / float64(res.ROMDDSize)
	}
	return md, nil
}

// phaseCat is the trace category of the build phases and of each
// build's root event; obs.WriteChromeTrace puts it on the "phases"
// track.
const phaseCat = "phase"

// readHeap returns the bytes in Go heap objects, live or not yet
// swept.
func readHeap() uint64 {
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// reclaim runs one collection when the conversion can take its memory
// out of the tables the compile released: when the released bytes,
// garbage since Release, plus the bytes the conversion may take (the
// sizing walk's bound, mdd.Manager.ReserveBytes) are at least GOGC
// percent of the rest of the heap. Past that point the heap the build
// ends with is more than a fresh mark of the rest would let grow before
// the runtime's next cycle: without one, the conversion's arrays land
// on fresh pages on top of the garbage and the runtime collects later
// anyway. The ratio is the runtime's, read rather than chosen. In a
// heap that holds much more, such as a server's cached models, both are
// a small share and the runtime's pacing is left alone; with GOGC=off
// nothing is collected. It reports whether it collected, the rest of
// the heap it weighed, and the heap afterwards.
//
// The rest of the heap is the live heap the last cycle marked, less
// the tables, which were live then. Heap-object bytes would overstate
// it by the garbage not yet swept: on ESEN8x2 the unique tables and
// caches that compile growths superseded, about 11 MB.
//
// The conversion's bytes join the tables because the tables alone no
// longer decide: ESEN8x2 releases 33.9 MB against a rest of 43.4 MB.
// Its distinct children are counted only as the conversion makes
// them, so reserved carries the sizing walk's bound on them, one int32
// per value, and the rule errs toward a collection, not toward the
// peak. With the reservation alone MS6 (33.7 + 7.1 MB against 43.5 MB)
// would convert on top of its released tables.
func reclaim(released, reserved uint64) (collected bool, rest, after uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/gogc:percent"}}
	metrics.Read(s[:])
	live, gogc := s[0].Value.Uint64(), int64(s[1].Value.Uint64())
	rest = live - min(live, released)
	if !reclaimDue(released, reserved, rest, gogc) {
		return false, rest, readHeap()
	}
	runtime.GC()
	return true, rest, readHeap()
}

// reclaimDue is reclaim's rule: collect when released + reserved bytes
// are at least gogc percent of rest, never when gogc is negative (off).
func reclaimDue(released, reserved, rest uint64, gogc int64) bool {
	return gogc >= 0 && float64(released+reserved)*100 >= float64(gogc)*float64(rest)
}
