// Custom fabric: a user-defined irregular SoC — the kind of design the
// paper motivates, where no "ad-hoc" regular-structure formula applies.
// Two processor tiles with private caches share a memory controller
// that has a cold spare; an accelerator is optional for degraded-mode
// operation. The example builds the fault tree with the public API,
// evaluates yield under several clustering regimes, and runs the
// reliability extension.
package main

import (
	"fmt"
	"log"

	"socyield"
)

func main() {
	f := socyield.NewFaultTree()
	cpu0, l2c0 := f.Input("cpu0"), f.Input("l2c0")
	cpu1, l2c1 := f.Input("cpu1"), f.Input("l2c1")
	mc, mcSpare := f.Input("mc"), f.Input("mc_spare")
	noc := f.Input("noc")
	acc := f.Input("acc")

	// A tile works if its CPU and its cache work.
	tile0 := f.And(f.Not(cpu0), f.Not(l2c0))
	tile1 := f.And(f.Not(cpu1), f.Not(l2c1))
	// Memory path works if either controller copy works.
	mem := f.Or(f.Not(mc), f.Not(mcSpare))
	// The chip ships if the NoC works, memory works, at least one tile
	// works, and — for the premium bin — the accelerator works too.
	// Here we model the sellable (degraded-allowed) configuration:
	operational := f.And(f.Not(noc), mem, f.Or(tile0, tile1))
	_ = acc // the accelerator does not gate the sellable bin
	f.SetOutput(f.Not(operational))

	sys := &socyield.System{
		Name: "custom-fabric",
		Components: []socyield.Component{
			{Name: "cpu0", P: 0.09}, {Name: "l2c0", P: 0.05},
			{Name: "cpu1", P: 0.09}, {Name: "l2c1", P: 0.05},
			{Name: "mc", P: 0.04}, {Name: "mc_spare", P: 0.04},
			{Name: "noc", P: 0.08},
			{Name: "acc", P: 0.06},
		},
		FaultTree: f,
	}

	fmt.Println("yield vs defect clustering (mean λ = 2 defects):")
	for _, alpha := range []float64{0.25, 1, 2, 10} {
		dist, err := socyield.NewNegativeBinomial(2, alpha)
		if err != nil {
			log.Fatal(err)
		}
		res, err := socyield.Evaluate(sys, socyield.Options{Defects: dist, Epsilon: 1e-4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  α=%-5g  yield ∈ [%.5f, %.5f]  (M=%d)\n",
			alpha, res.Yield, res.Yield+res.ErrorBound, res.M)
	}
	// Stronger clustering (small α) concentrates defects on few dies:
	// more dies escape defect-free, so yield rises — the classic
	// negative-binomial effect the paper's model family captures.

	// Exact cross-check by the DP over the fault tree's own ROBDD.
	dist, _ := socyield.NewNegativeBinomial(2, 0.25)
	exact, err := socyield.BruteForce(sys, socyield.Options{Defects: dist, Epsilon: 1e-4})
	if err != nil {
		log.Fatal(err)
	}
	method, _ := socyield.Evaluate(sys, socyield.Options{Defects: dist, Epsilon: 1e-4})
	fmt.Printf("\nexact DP check at α=0.25: |Δ| = %.2e\n", abs(exact.Yield-method.Yield))

	// Mission reliability of the sellable bin over 5 years.
	lts := make([]socyield.Lifetime, len(sys.Components))
	for i := range lts {
		lts[i] = socyield.Exponential{Rate: 2e-6} // per hour
	}
	curve, err := socyield.ReliabilityCurve(sys, socyield.ReliabilityOptions{
		Defects: dist, Epsilon: 1e-4, Lifetimes: lts,
	}, []float64{0, 8760, 26280, 43800}) // 0, 1y, 3y, 5y
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noperational reliability (exponential field failures, 2e-6/h):")
	for _, pt := range curve.Points {
		fmt.Printf("  R(%6g h) = %.5f\n", pt.T, pt.Reliability)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
