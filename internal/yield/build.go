package yield

import (
	"fmt"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// buildModel runs the one-time build — coded-ROBDD compilation and
// ROMDD conversion — on the engine the resolved BuildWorkers selects,
// filling res's phase timings, engine statistics and structural sizes
// in place. It is the shared core of Evaluate and NewReevaluator.
//
// BuildWorkers == 1 uses the serial reference engine, byte for byte
// the pipeline the paper's numbers were reproduced on; ≥ 2 uses the
// concurrent engine (bdd.Shared + compile.NetlistParallel +
// convert.ToMDDParallel). Both build the same canonical diagrams for
// the same variable order, so every result derived from them — yield,
// M, error bound, diagram sizes — is bit-identical across worker
// counts; the equivalence tests enforce this with exact comparisons.
// Test-only bdd options (e.g. WithoutComplementEdges) exist only on
// the serial engine and pin it regardless of BuildWorkers.
//
// parent is the enclosing metrics span (nil-safe). On error res is
// still consistently filled up to the failing phase; callers decide
// whether to publish it.
func (p *prepared) buildModel(parent *obs.Span, g *encode.GFunc, plan *order.Plan, res *Result) (*mdd.Manager, mdd.Node, error) {
	workers := p.opts.BuildWorkers
	if workers < 1 || len(p.opts.bddOptions) > 0 {
		workers = 1
	}
	res.Stats.BuildWorkers = workers
	groupOf, bitOf := groupMeta(g)
	spec, specErr := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())

	if workers > 1 {
		return p.buildModelConcurrent(parent, g, plan, res, spec, specErr, workers)
	}

	p.opts.BuildState.StartPhase(obs.BuildCompile, 0)
	sp := parent.Child("compile")
	t0 := time.Now()
	bm := bdd.New(g.Netlist.NumInputs(), p.opts.bddManagerOptions()...)
	broot, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels,
		compile.WithBuildState(p.opts.BuildState), compile.WithTracer(p.opts.Tracer))
	res.Phases.Compile = time.Since(t0)
	sp.End()
	res.Stats.BDD = bm.Stats()
	res.Stats.CompilePeakLive = bm.ResetPeakLive()
	res.ROBDDPeak = res.Stats.CompilePeakLive
	if err != nil {
		return nil, mdd.False, fmt.Errorf("yield: compiling coded ROBDD: %w", err)
	}
	res.CodedROBDDSize = bm.Size(broot)
	if specErr != nil {
		return nil, mdd.False, specErr
	}
	// The root is final: conversion reads only the node arena, so the
	// build's cache, unique table and reference counts go now.
	bm.Release()

	p.opts.BuildState.StartPhase(obs.BuildConvert, 0)
	sp = parent.Child("convert")
	t0 = time.Now()
	mm, err := mdd.New(spec.Domains, mdd.WithNodeLimit(p.opts.NodeLimit))
	if err != nil {
		sp.End()
		return nil, mdd.False, err
	}
	mroot, err := convert.ToMDDWithStats(bm, broot, mm, spec, &res.Stats.Convert,
		convert.WithBuildState(p.opts.BuildState), convert.WithTracer(p.opts.Tracer))
	res.Phases.Convert = time.Since(t0)
	sp.End()
	res.Stats.MDD = mm.BuildStats()
	res.Stats.ConvertPeakLive = bm.PeakLive()
	res.ROBDDPeak = max(res.ROBDDPeak, res.Stats.ConvertPeakLive)
	if err != nil {
		return nil, mdd.False, fmt.Errorf("yield: converting to ROMDD: %w", err)
	}
	finishModelStats(res, mm, mroot)
	return mm, mroot, nil
}

// buildModelConcurrent is the BuildWorkers ≥ 2 arm of buildModel, on
// the concurrent engine. It mirrors the serial arm phase for phase.
func (p *prepared) buildModelConcurrent(parent *obs.Span, g *encode.GFunc, plan *order.Plan, res *Result, spec convert.Spec, specErr error, workers int) (*mdd.Manager, mdd.Node, error) {
	s := bdd.NewShared(g.Netlist.NumInputs(), p.opts.NodeLimit)
	p.live.setShared(s)

	p.opts.BuildState.StartPhase(obs.BuildCompile, 0)
	sp := parent.Child("compile")
	t0 := time.Now()
	broot, cst, err := compile.NetlistParallel(s, g.Netlist, plan.BinaryLevels, workers,
		compile.WithBuildState(p.opts.BuildState), compile.WithTracer(p.opts.Tracer))
	res.Phases.Compile = time.Since(t0)
	sp.End()
	res.Stats.BDD = s.Stats()
	res.Stats.CompilePeakLive = s.ResetPeakLive()
	res.ROBDDPeak = res.Stats.CompilePeakLive
	res.Stats.CompileTasks = int64(cst.Tasks)
	res.Stats.CompileSteals = cst.Steals
	if err != nil {
		return nil, mdd.False, fmt.Errorf("yield: compiling coded ROBDD: %w", err)
	}
	res.CodedROBDDSize = s.Size(broot)
	if specErr != nil {
		return nil, mdd.False, specErr
	}

	p.opts.BuildState.StartPhase(obs.BuildConvert, 0)
	sp = parent.Child("convert")
	t0 = time.Now()
	mm, err := mdd.New(spec.Domains, mdd.WithNodeLimit(p.opts.NodeLimit))
	if err != nil {
		sp.End()
		return nil, mdd.False, err
	}
	mroot, err := convert.ToMDDParallel(s, broot, mm, spec, workers, &res.Stats.Convert,
		convert.WithBuildState(p.opts.BuildState), convert.WithTracer(p.opts.Tracer))
	res.Phases.Convert = time.Since(t0)
	sp.End()
	res.Stats.MDD = mm.BuildStats()
	res.Stats.ConvertPeakLive = s.PeakLive()
	res.ROBDDPeak = max(res.ROBDDPeak, res.Stats.ConvertPeakLive)
	if err != nil {
		return nil, mdd.False, fmt.Errorf("yield: converting to ROMDD: %w", err)
	}
	finishModelStats(res, mm, mroot)
	return mm, mroot, nil
}

func finishModelStats(res *Result, mm *mdd.Manager, mroot mdd.Node) {
	ms := mm.ComputeStats(mroot)
	res.ROMDDSize = ms.Nodes
	res.Stats.ROMDDPerLevel = ms.PerLevel
	res.Stats.ROMDDMaxWidth = ms.MaxWidth
	if res.ROMDDSize > 0 {
		res.Stats.ROBDDToROMDDRatio = float64(res.CodedROBDDSize) / float64(res.ROMDDSize)
	}
}
