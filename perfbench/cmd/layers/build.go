package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"socyield"
	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/order"
	"socyield/internal/yield"
	"socyield/perfbench/e2e"
	"socyield/perfbench/harness"
)

// tracedBuild is what the traced pipeline measured for one case.
type tracedBuild struct {
	total, encode, order, compile, convert, freeze time.Duration
	// stages is the summed duration of every stage span; total minus
	// stages is the time between the stages.
	stages                 time.Duration
	gGates                 int
	compilePeak, codedSize int
	convertPeak            int
	compileHeap, convHeap  uint64
	bdd                    bdd.Stats
	romddNodes, m          int
	yield                  float64
	gcCycles               uint32
	gcPause                time.Duration
}

// buildTraced runs the pipeline NewReevaluator runs, on the serial
// engine, calling each layer's exported functions directly with a span
// around each call. It changes nothing in the program: the spans live
// in this file.
func buildTraced(sp *Spans, trace string, sys *socyield.System, opts socyield.Options) (*tracedBuild, error) {
	var tb tracedBuild
	var err error
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := harness.StartHeapSampler(time.Millisecond)
	defer heap.Stop()
	root := sp.Start(trace, "build", -1)
	stage := func(name string, f func()) time.Duration {
		d := sp.Do(trace, name, root, f)
		tb.stages += d
		return d
	}

	// Lethal-defect model and truncation point, as yield.prepare.
	pl := 0.0
	for _, c := range sys.Components {
		pl += c.P
	}
	var lethal defects.Distribution
	var qprime []float64
	var tail float64
	stage("defects.Thin", func() { lethal, err = defects.Thin(opts.Defects, pl) })
	if err == nil {
		stage("defects.TruncationPoint", func() { tb.m, _, err = defects.TruncationPoint(lethal, opts.Epsilon) })
	}
	if err == nil {
		stage("defects.PMFTable", func() { qprime, tail, err = defects.PMFTable(lethal, tb.m) })
	}
	if err != nil {
		return nil, err
	}

	var g *encode.GFunc
	tb.encode = stage("encode.BuildG", func() { g, err = encode.BuildG(sys.FaultTree, tb.m) })
	if err != nil {
		return nil, err
	}
	tb.gGates = g.Netlist.NumGates()
	// yield.Options' default orderings: the weight heuristic, most
	// significant bit first.
	var plan *order.Plan
	tb.order = stage("order.Assemble", func() { plan, err = order.Assemble(g.Netlist, g.Groups, order.MVWeight, order.BitML) })
	if err != nil {
		return nil, err
	}

	heap.Reset()
	bm := bdd.New(g.Netlist.NumInputs(), bdd.WithNodeLimit(opts.NodeLimit))
	var broot bdd.Node
	tb.compile = stage("compile.Netlist", func() { broot, err = compile.Netlist(bm, g.Netlist, plan.BinaryLevels) })
	tb.compileHeap = heap.Reset()
	if err != nil {
		return nil, err
	}
	tb.bdd = bm.Stats()
	tb.compilePeak = bm.ResetPeakLive()
	tb.codedSize = bm.Size(broot)

	// Group metadata of G's inputs, as yield.groupMeta.
	groupOf := make([]int, g.Netlist.NumInputs())
	bitOf := make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(len(grp.Bits) - 1 - j)
		}
	}
	var mm *mdd.Manager
	var mroot mdd.Node
	tb.convert = stage("convert.ToMDDWithStats", func() {
		var spec convert.Spec
		if spec, err = convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains()); err != nil {
			return
		}
		if mm, err = mdd.New(spec.Domains, mdd.WithNodeLimit(opts.NodeLimit)); err != nil {
			return
		}
		var cst convert.Stats
		mroot, err = convert.ToMDDWithStats(bm, broot, mm, spec, &cst)
	})
	tb.convHeap = heap.Reset()
	if err != nil {
		return nil, err
	}
	tb.convertPeak = bm.PeakLive()
	bm = nil

	var frozen *mdd.Frozen
	tb.freeze = stage("mdd.Freeze", func() { frozen = mm.Freeze(mroot) })
	tb.romddNodes = frozen.Size()
	var re *yield.Reevaluator
	stage("yield.RestoreReevaluator", func() {
		re, err = yield.RestoreReevaluator(&yield.Snapshot{
			EngineRevision: yield.EngineRevision,
			SystemName:     sys.Name,
			Components:     len(sys.Components),
			M:              tb.m,
			GroupSeq:       plan.GroupSeq,
			Frozen:         frozen,
			Build:          yield.BuildSummary{ROMDDSize: tb.romddNodes},
		})
	})
	if err != nil {
		return nil, err
	}
	pprime := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		pprime[i] = c.P / pl
	}
	stage("Reevaluator.YieldRaw", func() { tb.yield, err = re.YieldRaw(pprime, qprime, tail) })
	tb.total = sp.End(root)
	runtime.ReadMemStats(&ms1)
	tb.gcCycles = ms1.NumGC - ms0.NumGC
	tb.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return &tb, err
}

// untracedBuild times a plain NewReevaluator, with instruments or not,
// after a collection so every build starts from the same heap.
func untracedBuild(sys *socyield.System, opts socyield.Options) (*socyield.Reevaluator, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	re, err := socyield.NewReevaluator(sys, opts)
	return re, time.Since(t0), err
}

// buildLayers adds up what the traced pipeline measured over the
// builds of one workload, with the plain and instrumented times of the
// same builds, and gives the per-layer build metrics.
type buildLayers struct {
	sum                 tracedBuild
	plain, instrumented time.Duration
	plainMS             []float64
	hits, lookups       int64
}

// build builds sys three times: plain, through the traced pipeline,
// and with the program's own instruments (Recorder, Tracer,
// BuildState) set. It records the three, and returns the plain build
// and the traced one after checking that they agree bit for bit.
func (b *buildLayers) build(sp *Spans, trace string, sys *socyield.System, opts socyield.Options) (*socyield.Reevaluator, *tracedBuild, error) {
	re, plain, err := untracedBuild(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	tb, err := buildTraced(sp, trace, sys, opts)
	if err != nil {
		return nil, nil, err
	}
	if tb.m != re.M() || tb.romddNodes != re.Result.ROMDDSize || tb.yield != re.Result.Yield || tb.codedSize != re.Result.CodedROBDDSize {
		return nil, nil, fmt.Errorf("%s: traced pipeline differs from NewReevaluator: yield %v vs %v, ROMDD %d vs %d",
			trace, tb.yield, re.Result.Yield, tb.romddNodes, re.Result.ROMDDSize)
	}
	instr := opts
	instr.Recorder = socyield.NewMetrics()
	instr.Tracer = socyield.NewTracer(0)
	instr.BuildState = socyield.NewBuildState()
	_, instrumented, err := untracedBuild(sys, instr)
	if err != nil {
		return nil, nil, err
	}

	b.plain += plain
	b.plainMS = append(b.plainMS, float64(plain)/float64(time.Millisecond))
	b.instrumented += instrumented
	sum := &b.sum
	sum.total += tb.total
	sum.stages += tb.stages
	sum.encode += tb.encode
	sum.order += tb.order
	sum.compile += tb.compile
	sum.convert += tb.convert
	sum.freeze += tb.freeze
	sum.gGates += tb.gGates
	sum.codedSize += tb.codedSize
	sum.romddNodes += tb.romddNodes
	sum.compilePeak = max(sum.compilePeak, tb.compilePeak)
	sum.convertPeak = max(sum.convertPeak, tb.convertPeak)
	sum.compileHeap = max(sum.compileHeap, tb.compileHeap)
	sum.convHeap = max(sum.convHeap, tb.convHeap)
	sum.bdd.NodesCreated += tb.bdd.NodesCreated
	sum.gcCycles += tb.gcCycles
	sum.gcPause += tb.gcPause
	b.hits += tb.bdd.ApplyCacheHits
	b.lookups += tb.bdd.ApplyCacheHits + tb.bdd.ApplyCacheMisses
	return re, tb, nil
}

// metrics returns the per-layer build metrics. Times, sizes and counts
// are summed over the builds, peaks are the largest, and the overheads
// compare the summed traced and instrumented times with the plain one.
func (b *buildLayers) metrics() map[string]harness.Metric {
	sum := &b.sum
	pct := func(x, base time.Duration) float64 { return 100 * (x - base).Seconds() / base.Seconds() }
	return map[string]harness.Metric{
		"encode.s":                  {Value: sum.encode.Seconds(), Unit: "s"},
		"encode.g_gates":            {Value: float64(sum.gGates), Unit: "count"},
		"order.s":                   {Value: sum.order.Seconds(), Unit: "s"},
		"compile.s":                 {Value: sum.compile.Seconds(), Unit: "s"},
		"compile.peak_live_nodes":   {Value: float64(sum.compilePeak), Unit: "count"},
		"compile.coded_robdd_nodes": {Value: float64(sum.codedSize), Unit: "count"},
		"compile.heap_peak_mb":      {Value: harness.MB(sum.compileHeap), Unit: "MB"},
		"bdd.ite_hit_ratio":         {Value: float64(b.hits) / float64(b.lookups), Unit: "ratio"},
		"bdd.nodes_created":         {Value: float64(sum.bdd.NodesCreated), Unit: "count"},
		"convert.s":                 {Value: sum.convert.Seconds(), Unit: "s"},
		"convert.peak_live_nodes":   {Value: float64(sum.convertPeak), Unit: "count"},
		"convert.heap_peak_mb":      {Value: harness.MB(sum.convHeap), Unit: "MB"},
		"mdd.freeze_s":              {Value: sum.freeze.Seconds(), Unit: "s"},
		"mdd.romdd_nodes":           {Value: float64(sum.romddNodes), Unit: "count"},
		"runtime.gc_cycles":         {Value: float64(sum.gcCycles), Unit: "count"},
		"runtime.gc_pause_s":        {Value: sum.gcPause.Seconds(), Unit: "s"},
		"build.traced_s":            {Value: sum.total.Seconds(), Unit: "s"},
		"build.untraced_s":          {Value: b.plain.Seconds(), Unit: "s"},
		"build.residual_s":          {Value: (sum.total - sum.stages).Seconds(), Unit: "s"},
		"trace.overhead_pct":        {Value: pct(sum.total, b.plain), Unit: "%"},
		"obs.overhead_pct":          {Value: pct(b.instrumented, b.plain), Unit: "%"},
	}
}

// layersBuild is the traced build workload. Each case is built plain,
// traced and instrumented (buildLayers.build), and the traced build
// must also reproduce the case's recorded results. On the ESEN8x2
// model it also measures the evaluation layers (whatifLayers).
func layersBuild(a harness.Args, tl *harness.Tally, sp *Spans) (map[string]harness.Metric, error) {
	var bl buildLayers
	m := map[string]harness.Metric{}
	for i, c := range e2e.BuildCases {
		sys, err := e2e.SystemByName(c.Name)
		if err != nil {
			return nil, err
		}
		re, tb, err := bl.build(sp, "build/"+c.Name, sys, e2e.BuildOptions())
		if err == nil {
			err = c.Check(tb.m, tb.romddNodes, tb.yield)
		}
		if !tl.Check(err == nil) {
			fmt.Println("build:", c.Name, err)
			continue
		}
		if i == 0 {
			// The first case is also the what-if model: the evaluation
			// layers are measured on it here.
			w, err := e2e.WhatifOn(a.Seed, sys, re)
			if err != nil {
				return nil, err
			}
			wm, err := whatifLayers(w, tl, sp)
			if err != nil {
				return nil, err
			}
			maps.Copy(m, wm)
		}
		m["compile.peak_live_nodes."+c.Name] = harness.Metric{Value: float64(tb.compilePeak), Unit: "count"}
		m["compile.coded_robdd_nodes."+c.Name] = harness.Metric{Value: float64(tb.codedSize), Unit: "count"}
		fmt.Printf("%s: plain %.1fms, traced %.3fs (stages %.3fs)\n",
			c.Name, bl.plainMS[len(bl.plainMS)-1], tb.total.Seconds(), tb.stages.Seconds())
	}
	maps.Copy(m, bl.metrics())
	return m, nil
}
