// Command yieldsoc evaluates the manufacturing yield of a
// fault-tolerant system-on-chip with the combinatorial method.
//
// The system is either one of the paper's benchmarks (-bench MS4,
// -bench ESEN8x2) or a description file in the ftdsl format (-f
// system.ft). The defect model is a negative binomial with mean
// -lambda and clustering -alpha (use -poisson for the Poisson model,
// or -alphas a1,a2,... for the multilevel clustered model with one
// gamma-distributed scale factor per hierarchy level).
//
// Examples:
//
//	yieldsoc -bench MS4 -lambda 2 -alpha 0.25
//	yieldsoc -f tmr.ft -lambda 1 -alpha 2 -eps 1e-5
//	yieldsoc -bench ESEN4x2 -lambda 2 -alpha 2 -mv wvr -bits lm
//	yieldsoc -bench MS2 -lambda 2 -alpha 2 -reliability 0,10,100 -frate 1e-3
//	yieldsoc -bench MS4 -lambda 2 -alpha 2 -sweep 0.5,1,2,4 -workers 8
//	yieldsoc -bench MS3 -lambda 0.02 -alpha 2 -mc-is 100000
//
// -mc runs a naive Monte-Carlo cross-check; -mc-is runs the
// importance-sampling estimator instead, which stays sharp in the
// rare-event regime (near-certain yield) where the naive sampler
// degenerates to an all-pass sample. -mc-tilt fixes the exponential
// tilt; by default an untilted pilot phase picks it adaptively.
//
// -sweep evaluates the yield for each listed λ on one shared ROMDD
// (built once), fanning the points out over -workers goroutines.
//
// -reliability evaluates the operational reliability at each listed
// mission time, with exponential field failures at -frate per
// component. It compiles the fault tree's own ROBDD once and runs one
// pass per time point; -mv and -bits order the paper's coded ROBDD and
// do not apply to it.
//
// -save-model FILE persists the compiled model (the expensive build
// artifact) in the versioned binary format of internal/store;
// -load-model FILE restores it in milliseconds and evaluates
// bit-identically to a fresh build. Saving into a directory stores the
// model as <model-key>.scm — the layout yieldd -store-dir serves —
// so a fleet's models can be pre-compiled offline.
//
// Instrumentation: -metrics-json FILE dumps every counter, gauge and
// histogram collected during the run as JSON ("-" for stdout);
// -trace-out FILE records the run as a Chrome trace-event file (open
// it at ui.perfetto.dev) with each build's phases on one track and its
// per-gate compile events on a build track; -progress prints periodic
// completion lines for -mc and -mc-is; -pprof ADDR serves
// net/http/pprof on ADDR for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"socyield/internal/cliutil"
	"socyield/internal/defects"
	"socyield/internal/montecarlo"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/reliability"
	"socyield/internal/store"
	"socyield/internal/yield"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "yieldsoc:", err)
		os.Exit(1)
	}
}

// loadCompiled restores a model saved by -save-model (or by a yieldd
// store). The model's key must match the key of this run's flags —
// a compiled model is only valid for the exact structure, orderings,
// ε and truncation point it was built from.
func loadCompiled(path, key string) (*yield.Reevaluator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	re, err := store.Unpack(key, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w — rebuild with -save-model or match the original flags", path, err)
	}
	return re, nil
}

// saveCompiled persists the compiled model. A directory destination
// stores it content-addressed (<key>.scm) — pointing -save-model at a
// yieldd -store-dir pre-compiles models for the server. A file
// destination writes atomically via a sibling temp file.
func saveCompiled(path, key string, re *yield.Reevaluator) error {
	data, err := store.Pack(key, re)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		st, err := store.Open(path, 0, nil)
		if err != nil {
			return err
		}
		if err := st.Put(key, data); err != nil {
			return err
		}
		fmt.Printf("model saved %s (%d bytes, key %s)\n", filepath.Join(path, key+".scm"), len(data), key[:12])
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".save-model-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	fmt.Printf("model saved %s (%d bytes, key %s)\n", path, len(data), key[:12])
	return nil
}

func run() error {
	var (
		benchName = flag.String("bench", "", "benchmark system (MS<n> or ESEN<n>x<m>)")
		file      = flag.String("f", "", "system description file (ftdsl format)")
		lambda    = flag.Float64("lambda", 2, "expected number of manufacturing defects")
		alpha     = flag.Float64("alpha", 2, "negative binomial clustering parameter")
		poisson   = flag.Bool("poisson", false, "use a Poisson defect model instead")
		alphas    = flag.String("alphas", "", "comma-separated per-level clustering parameters for the multilevel model (innermost first; overrides -alpha/-poisson)")
		eps       = flag.Float64("eps", 5e-3, "absolute yield error requirement")
		mvName    = flag.String("mv", "w", "MV-variable ordering: wv wvr vw vrw t w h")
		bitName   = flag.String("bits", "ml", "bit-group ordering: ml lm t w h")
		nodeLimit = flag.Int("nodelimit", 0, "decision-diagram node budget (0 = unlimited)")
		mcSamples = flag.Int("mc", 0, "also run a Monte-Carlo cross-check with this many samples")
		mcIS      = flag.Int("mc-is", 0, "also run an importance-sampling Monte-Carlo cross-check with this many samples (pilot included)")
		mcTilt    = flag.Float64("mc-tilt", -1, "fixed exponential tilt for -mc-is (negative = adaptive pilot)")
		sens      = flag.Bool("sensitivity", false, "print per-component yield sensitivities ∂Y/∂P_i")
		relTimes  = flag.String("reliability", "", "comma-separated mission times for a reliability curve")
		fRate     = flag.Float64("frate", 1e-3, "field failure rate per component (with -reliability)")
		sweep     = flag.String("sweep", "", "comma-separated λ values for a batch sweep on the shared ROMDD")
		workers   = flag.Int("workers", 0, "parallel workers for -sweep and -mc (0 = all cores)")
		verbose   = flag.Bool("v", false, "print per-phase statistics")
		metricsJS = flag.String("metrics-json", "", "write collected metrics as JSON to this file (\"-\" = stdout)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event file of the run to this file (Perfetto-loadable)")
		progress  = flag.Bool("progress", false, "print periodic progress lines for -mc and -mc-is runs")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address")
		saveModel = flag.String("save-model", "", "write the compiled model to this file after the build (an existing directory stores it under <model-key>.scm, yieldd -store-dir compatible)")
		loadModel = flag.String("load-model", "", "load a compiled model saved by -save-model instead of building (the flags must describe the model it was compiled from)")
	)
	flag.Parse()

	// One registry instruments the whole run. It is created only for
	// -metrics-json; a nil registry records nothing.
	var rec *obs.Registry
	if *metricsJS != "" {
		rec = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		cliutil.ServeDebug("yieldsoc", *pprofAddr)
	}
	flight := cliutil.StartFlightRecorder(*traceOut)

	sys, err := cliutil.LoadSystem(*benchName, *file)
	if err != nil {
		return err
	}
	// makeDist builds the defect model for a given λ so the headline
	// run and each -sweep point share one family-selection rule.
	makeDist := func(l float64) (defects.Distribution, error) {
		if *alphas != "" {
			as, err := cliutil.ParseFloats(*alphas)
			if err != nil {
				return nil, fmt.Errorf("-alphas: %w", err)
			}
			return defects.NewMultilevel(l, as...)
		}
		if *poisson {
			return defects.NewPoisson(l)
		}
		return defects.NewNegativeBinomial(l, *alpha)
	}
	dist, err := makeDist(*lambda)
	if err != nil {
		return err
	}
	mv, err := order.ParseMVKind(*mvName)
	if err != nil {
		return err
	}
	bits, err := order.ParseBitKind(*bitName)
	if err != nil {
		return err
	}
	opts := yield.Options{
		Defects: dist, Epsilon: *eps,
		MVOrder: mv, BitOrder: bits, NodeLimit: *nodeLimit,
		Recorder: rec,
		Tracer:   flight.Tracer(),
	}
	ps := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		ps[i] = c.P
	}

	// One Reevaluator carries the whole run: the headline evaluation,
	// -sensitivity, -sweep, and -save-model all share the same compiled
	// model, built (or loaded) exactly once. The build resolves the
	// same truncation point as ModelKey, so the compiled artifact is the
	// one the key addresses — the same identity yieldd's store uses.
	key, _, err := yield.ModelKey(sys, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	var re *yield.Reevaluator
	if *loadModel != "" {
		if re, err = loadCompiled(*loadModel, key); err != nil {
			return err
		}
	} else if re, err = yield.NewReevaluator(sys, opts); err != nil {
		return err
	}
	elapsed := time.Since(start)
	res := *re.Result
	if *loadModel != "" {
		// The loaded model's stored summary reflects its build-time
		// inputs; reevaluate under this run's flags (bit-identical to a
		// fresh build — the store test battery holds the codec to that).
		if res.Yield, res.ErrorBound, err = re.Yield(ps, dist); err != nil {
			return err
		}
		pl := sys.PL()
		lethal, err := defects.Thin(dist, pl)
		if err != nil {
			return err
		}
		res.PL, res.LambdaPrime = pl, lethal.Mean()
	}
	if *saveModel != "" {
		if err := saveCompiled(*saveModel, key, re); err != nil {
			return err
		}
	}

	fmt.Printf("system      %s (C=%d components, %d gates)\n", sys.Name, len(sys.Components), sys.FaultTree.NumGates())
	fmt.Printf("defects     %v, P_L=%.4g, λ'=%.4g\n", dist, res.PL, res.LambdaPrime)
	fmt.Printf("truncation  M=%d (ε=%g)\n", res.M, *eps)
	fmt.Printf("error bound %.3g (tail mass beyond M=%d; Y_true - Y_M ≤ bound)\n", res.ErrorBound, res.M)
	fmt.Printf("yield       %.6f  (true yield in [%.6f, %.6f])\n", res.Yield, res.Yield, res.Yield+res.ErrorBound)
	if *verbose {
		fmt.Printf("G function  %d gates over %d binary variables\n", res.GGates, res.BinaryVars)
		fmt.Printf("coded ROBDD %d nodes (peak %d live)\n", res.CodedROBDDSize, res.ROBDDPeak)
		fmt.Printf("ROMDD       %d nodes (max level width %d)\n", res.ROMDDSize, res.Stats.ROMDDMaxWidth)
		fmt.Printf("apply cache %d hits / %d misses; unique table %d hits, %d nodes created\n",
			res.Stats.BDD.ApplyCacheHits, res.Stats.BDD.ApplyCacheMisses,
			res.Stats.BDD.UniqueTableHits, res.Stats.BDD.NodesCreated)
		fmt.Printf("time        %v (prepare %v, encode %v, order %v, compile %v, convert %v, eval %v)\n",
			elapsed.Round(time.Millisecond),
			res.Phases.Prepare.Round(time.Millisecond),
			res.Phases.Encode.Round(time.Millisecond),
			res.Phases.Order.Round(time.Millisecond),
			res.Phases.Compile.Round(time.Millisecond),
			res.Phases.Convert.Round(time.Millisecond),
			res.Phases.Eval.Round(time.Millisecond))
	}
	if *sens {
		ds, err := re.Sensitivities(ps, dist, 0)
		if err != nil {
			return err
		}
		type sc struct {
			name string
			d    float64
		}
		ranked := make([]sc, len(ds))
		for i, d := range ds {
			ranked[i] = sc{sys.Components[i].Name, d}
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].d < ranked[b].d })
		fmt.Println("yield sensitivity ∂Y/∂P_i (most critical first):")
		limit := 10
		if len(ranked) < limit {
			limit = len(ranked)
		}
		for _, r := range ranked[:limit] {
			fmt.Printf("  %-14s %+.4f\n", r.name, r.d)
		}
	}
	if *sweep != "" {
		lambdas, err := cliutil.ParseFloats(*sweep)
		if err != nil {
			return err
		}
		dists := make([]defects.Distribution, len(lambdas))
		for i, l := range lambdas {
			if dists[i], err = makeDist(l); err != nil {
				return err
			}
		}
		start := time.Now()
		results := re.Sweep(yield.LambdaGrid(ps, dists), yield.SweepOptions{Workers: *workers, Recorder: rec})
		fmt.Printf("sweep over %d λ values (ROMDD built once, %d nodes, %v for all points):\n",
			len(lambdas), re.Result.ROMDDSize, time.Since(start).Round(time.Microsecond))
		for i, sr := range results {
			if sr.Err != nil {
				fmt.Printf("  λ=%-8g error: %v\n", lambdas[i], sr.Err)
				continue
			}
			fmt.Printf("  λ=%-8g yield %.6f  (true yield ≤ %.6f)\n", lambdas[i], sr.Yield, sr.Yield+sr.ErrorBound)
		}
	}
	if *mcSamples > 0 {
		var meter *obs.Progress
		if *progress {
			meter = obs.NewProgress(os.Stderr, "monte-carlo", *mcSamples, 0)
		}
		mc, err := montecarlo.Estimate(sys, montecarlo.Options{
			Defects: dist, Samples: *mcSamples, Seed: 1, Workers: *workers,
			Recorder: rec, Progress: meter,
		})
		meter.Close()
		if err != nil {
			return err
		}
		fmt.Printf("monte-carlo %.6f ± %.6f (95%% CI, %d samples)\n", mc.Yield, mc.CI(1.96), mc.Samples)
		if mc.Degenerate {
			lo, hi := mc.Wilson(1.96)
			fmt.Printf("monte-carlo sample is degenerate (every die %s); Wilson 95%% interval [%.6f, %.6f] — consider -mc-is\n",
				map[bool]string{true: "passed", false: "failed"}[mc.Yield == 1], lo, hi)
		}
	}
	if *mcIS > 0 {
		isOpts := montecarlo.ISOptions{
			Defects: dist, Samples: *mcIS, Seed: 1, Workers: *workers,
			Recorder: rec,
		}
		if *mcTilt >= 0 {
			isOpts.Tilt, isOpts.TiltSet = *mcTilt, true
		}
		if *progress {
			isOpts.Progress = obs.NewProgress(os.Stderr, "monte-carlo-is", *mcIS, 0)
		}
		is, err := montecarlo.EstimateIS(sys, isOpts)
		isOpts.Progress.Close()
		if err != nil {
			return err
		}
		fmt.Printf("mc-is       %.6f ± %.6f (95%% CI, %d samples, %d pilot)\n",
			is.Yield, is.CI(1.96), is.Samples, is.PilotSamples)
		fmt.Printf("mc-is       tilt %.3f, ESS %.0f, rel-err %.3g on failure probability %.4g\n",
			is.Tilt, is.ESS, is.RelErr, is.FailProb)
		if is.Degenerate {
			fmt.Println("mc-is       sample is degenerate — no failures even under the tilted proposal")
		}
	}
	if *relTimes != "" {
		times, err := cliutil.ParseFloats(*relTimes)
		if err != nil {
			return err
		}
		lts := make([]reliability.Lifetime, len(sys.Components))
		for i := range lts {
			lts[i] = reliability.Exponential{Rate: *fRate}
		}
		curve, err := reliability.Curve(sys, reliability.Options{
			Defects: dist, Epsilon: *eps, Lifetimes: lts, NodeLimit: *nodeLimit,
		}, times)
		if err != nil {
			return err
		}
		fmt.Printf("reliability (exponential field failures, rate %g):\n", *fRate)
		for _, pt := range curve.Points {
			fmt.Printf("  R(%g) = %.6f\n", pt.T, pt.Reliability)
		}
	}
	// The flight recorder closes after the instrumented work, once
	// every phase event is recorded.
	if err := flight.Close(); err != nil {
		return err
	}
	if *metricsJS != "" {
		if err := cliutil.WriteMetrics(rec, *metricsJS); err != nil {
			return err
		}
	}
	return nil
}
