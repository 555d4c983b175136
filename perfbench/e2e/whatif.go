package e2e

import (
	"math/rand/v2"

	"socyield"
	"socyield/perfbench/harness"
)

// Whatif holds the inputs of the what-if evaluations that the traced
// build run measures on the ESEN8x2 model. All of them come from the
// seed.
type Whatif struct {
	Model *socyield.Reevaluator
	// LawPoints is the law sweep: 64 NB points (16 λ × 4 α) and 16
	// hierarchical or multilevel points, all at the system's P_i.
	LawPoints []socyield.SweepPoint
	// SensPs are the P_i of the sensitivity call, under NB(2, 3.4).
	SensPs   []float64
	SensDist socyield.Distribution
}

// WhatifOn draws the what-if inputs for re, a model of sys built with
// BuildOptions.
func WhatifOn(seed uint64, sys *socyield.System, re *socyield.Reevaluator) (*Whatif, error) {
	ps := Lethalities(sys)
	w := &Whatif{Model: re, SensDist: NB(BuildLambda, BuildAlpha)}
	var err error
	w.LawPoints, err = LawGrid(harness.NewRand(seed, streamLawGrid), ps)
	if err != nil {
		return nil, err
	}
	w.SensPs = Perturb(harness.NewRand(seed, streamSens), ps, 0.2)
	return w, nil
}

// LawGrid draws the law sweep's points at fixed P_i.
func LawGrid(rng *rand.Rand, ps []float64) ([]socyield.SweepPoint, error) {
	var dists []socyield.Distribution
	lambdas := make([]float64, 16)
	for i := range lambdas {
		lambdas[i] = 0.5 + 0.2*(float64(i)+rng.Float64())
	}
	for j := 0; j < 4; j++ {
		alpha := 0.5 + 1.5*(float64(j)+rng.Float64())
		for _, l := range lambdas {
			dists = append(dists, NB(l, alpha))
		}
	}
	for i := 0; i < 8; i++ {
		l := 0.5 + 3*rng.Float64()
		d, err := socyield.NewHierarchical(l, 1+5*rng.Float64(), 1+5*rng.Float64())
		if err != nil {
			return nil, err
		}
		dists = append(dists, d)
	}
	for i := 0; i < 8; i++ {
		l := 0.5 + 3*rng.Float64()
		d, err := socyield.NewMultilevel(l, 1+5*rng.Float64(), 1+5*rng.Float64(), 1+5*rng.Float64())
		if err != nil {
			return nil, err
		}
		dists = append(dists, d)
	}
	return socyield.LambdaGrid(ps, dists), nil
}
