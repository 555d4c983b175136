package main

import (
	"fmt"
	"maps"
	"math"
	"time"

	"socyield"
	"socyield/internal/defects"
	"socyield/perfbench/e2e"
	"socyield/perfbench/harness"
)

// whatifLayers measures the layers a what-if evaluation passes on w's
// model: the cost of each defect law family, of one ROMDD pass and of
// one Yield call, the sweep's parallel speed-up, and the sensitivity
// call, in milliseconds and in units of passes.
func whatifLayers(w *e2e.Whatif, tl *harness.Tally, sp *Spans) (map[string]harness.Metric, error) {
	var err error
	m := w.Model.M()
	pl := 0.0
	for _, p := range w.LawPoints[0].PS {
		pl += p
	}

	// The defect-law layer: thinning and tabulating each law point's
	// distribution, which is what a sweep point does before its pass.
	lawUS := map[string][]float64{}
	for rep := 0; rep < 3; rep++ {
		for i, pt := range w.LawPoints {
			var err error
			d := sp.Do(fmt.Sprintf("law/%d", i), "defects.Thin+PMFTable", -1, func() {
				var lethal defects.Distribution
				if lethal, err = defects.Thin(pt.Dist, pl); err == nil {
					_, _, err = defects.PMFTable(lethal, m)
				}
			})
			if !tl.Check(err == nil) {
				fmt.Println("whatif: law point", i, err)
			}
			lawUS[family(pt.Dist)] = append(lawUS[family(pt.Dist)], float64(d)/float64(time.Microsecond))
		}
	}

	pass, err := passMS(w.Model, w.LawPoints[0].PS, w.SensDist, 15, tl, sp)
	if err != nil {
		return nil, err
	}

	// The sweep on one worker and on one per CPU, twice each. The sweep
	// engine promises the same results for every worker count and every
	// repetition, so each point must equal (==) the first run's.
	var one, all []float64
	var firstSweep []socyield.SweepResult
	for i := 0; i < 2; i++ {
		for _, workers := range []int{1, e2e.Workers()} {
			var res []socyield.SweepResult
			d := sp.Do(fmt.Sprintf("sweep/%d", workers), "Reevaluator.Sweep", -1, func() {
				res = w.Model.Sweep(w.LawPoints, socyield.SweepOptions{Workers: workers})
			})
			if firstSweep == nil {
				firstSweep = res
			}
			for j, r := range res {
				ok := r.Err == nil && r.Yield == firstSweep[j].Yield && r.ErrorBound == firstSweep[j].ErrorBound
				if !tl.Check(ok) {
					fmt.Printf("whatif: sweep point %d on %d workers: %+v, first run %+v\n", j, workers, r, firstSweep[j])
				}
			}
			if workers == 1 {
				one = append(one, d.Seconds())
			} else {
				all = append(all, d.Seconds())
			}
		}
	}

	// One what-if evaluation as a caller makes it, Reevaluator.Yield, on
	// each NB point of the sweep; each must equal (==) the sweep's
	// result for the point.
	var evalUS []float64
	for j, pt := range w.LawPoints {
		if family(pt.Dist) != "nb" {
			continue
		}
		var y, b float64
		d := sp.Do(fmt.Sprintf("eval/%d", j), "Reevaluator.Yield", -1, func() { y, b, err = w.Model.Yield(pt.PS, pt.Dist) })
		if !tl.Check(err == nil && y == firstSweep[j].Yield && b == firstSweep[j].ErrorBound) {
			fmt.Printf("whatif: Yield on point %d: %v %v (%v), sweep %+v\n", j, y, b, err, firstSweep[j])
		}
		evalUS = append(evalUS, float64(d)/float64(time.Microsecond))
	}

	// Sensitivities twice; the second vector must equal the first.
	var sensS, sensFirst []float64
	for i := 0; i < 2; i++ {
		var sens []float64
		d := sp.Do("sens", "Reevaluator.Sensitivities", -1, func() { sens, err = w.Model.Sensitivities(w.SensPs, w.SensDist, 0) })
		ok := err == nil && len(sens) == len(w.SensPs)
		if i == 0 {
			sensFirst = sens
		}
		for j := range sens {
			ok = ok && !math.IsNaN(sens[j]) && sens[j] == sensFirst[j]
		}
		if !tl.Check(ok) {
			fmt.Println("whatif: Sensitivities differ between two calls or failed:", err)
		}
		sensS = append(sensS, d.Seconds())
	}

	out := passMetrics(pass, w.Model)
	maps.Copy(out, map[string]harness.Metric{
		"yield.eval_us":         {Value: harness.Median(evalUS), Unit: "us"},
		"yield.sens_ms":         {Value: harness.Median(sensS) * 1000, Unit: "ms"},
		"yield.sweep_speedup":   {Value: harness.Median(one) / harness.Median(all), Unit: "ratio"},
		"yield.sens_pass_equiv": {Value: harness.Median(sensS) * 1000 / pass, Unit: "passes"},
	})
	for fam, us := range lawUS {
		out["defects.law_us."+fam] = harness.Metric{Value: harness.Median(us), Unit: "us"}
	}
	return out, nil
}

// family names a defect law's family for the per-family law cost.
func family(d socyield.Distribution) string {
	switch d.(type) {
	case socyield.NegativeBinomial:
		return "nb"
	case socyield.Hierarchical:
		return "hierarchical"
	case socyield.Multilevel:
		return "multilevel"
	}
	return "other"
}

// passMS times reps ROMDD passes (YieldRaw) of re on fixed inputs, the
// lethalities ps under dist, and returns the median in milliseconds.
// Every pass must give the first one's yield.
func passMS(re *socyield.Reevaluator, ps []float64, dist socyield.Distribution, reps int, tl *harness.Tally, sp *Spans) (float64, error) {
	pl := 0.0
	for _, p := range ps {
		pl += p
	}
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		return 0, err
	}
	qprime, tail, err := defects.PMFTable(lethal, re.M())
	if err != nil {
		return 0, err
	}
	pprime := make([]float64, len(ps))
	for i, p := range ps {
		pprime[i] = p / pl
	}
	var ms []float64
	var first float64
	for i := 0; i < reps; i++ {
		var y float64
		d := sp.Do("pass", "Reevaluator.YieldRaw", -1, func() { y, err = re.YieldRaw(pprime, qprime, tail) })
		if i == 0 {
			first = y
		}
		if !tl.Check(err == nil && y == first) {
			fmt.Println("YieldRaw:", y, first, err)
		}
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return harness.Median(ms), nil
}

// passMetrics gives one ROMDD pass of re in milliseconds and per node.
func passMetrics(pass float64, re *socyield.Reevaluator) map[string]harness.Metric {
	return map[string]harness.Metric{
		"mdd.pass_ms":     {Value: pass, Unit: "ms"},
		"mdd.ns_per_node": {Value: pass * 1e6 / float64(re.Result.ROMDDSize), Unit: "ns"},
	}
}
