// Package reliability implements the extension the paper's conclusion
// announces as future work: evaluating the operational reliability of
// a fault-tolerant system-on-chip taking manufacturing defects into
// account.
//
// Model. A die leaves the fab with a random set of defective
// components, distributed exactly as in the yield model (lethal-defect
// count W ~ Q', hits V_l ~ P'). In the field, every component i fails
// independently by time t with probability u_i(t) = 1 − R_i(t)
// (exponential or Weibull lifetimes). The system is operational at
// time t iff the fault tree evaluates to 0 on the union of the
// defective and the field-failed components: x_i = [hit] ∨ b_i with
// P(b_i) = u_i(t), so
//
//	R(t) = Σ_{k=0}^{M} Q'_k · P(F = 0 | k lethal defects, u(t)).
//
// Construction. F is compiled once, on its own ROBDD, by
// yield.NewCondFail; each time point is one pass of its dynamic
// program (yield.CondFail.Vector) with the unreliabilities u(t), in
// which a node whose component no defect hits still takes its hi edge
// with probability u_i(t). R(0) is the pass with u = 0: the
// manufacturing yield Y_M. Every point inherits the truncation error
// bound ≤ ε.
package reliability

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"socyield/internal/defects"
	"socyield/internal/yield"
)

// Lifetime models a component's field-failure process.
type Lifetime interface {
	// Unreliability returns P(component failed by time t), t ≥ 0.
	Unreliability(t float64) float64
	String() string
}

// Exponential is a constant-failure-rate lifetime.
type Exponential struct {
	// Rate is the failure rate λ (per unit time), ≥ 0.
	Rate float64
}

// Unreliability returns 1 − e^(−λt).
func (e Exponential) Unreliability(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * t)
}

func (e Exponential) String() string { return fmt.Sprintf("Exponential(λ=%g)", e.Rate) }

// Weibull is a shape-parameterized lifetime (β > 1: wear-out; β < 1:
// infant mortality).
type Weibull struct {
	Scale float64 // η > 0
	Shape float64 // β > 0
}

// Unreliability returns 1 − e^(−(t/η)^β).
func (w Weibull) Unreliability(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(t/w.Scale, w.Shape))
}

func (w Weibull) String() string { return fmt.Sprintf("Weibull(η=%g, β=%g)", w.Scale, w.Shape) }

// Options configure a reliability evaluation.
type Options struct {
	// Defects is the manufacturing defect distribution (required).
	Defects defects.Distribution
	// Epsilon is the truncation error requirement on the manufacturing
	// layer (default 1e-4). The reported reliability is pessimistic by
	// at most this much at every time point.
	Epsilon float64
	// Lifetimes gives each component's field-failure model, indexed
	// like System.Components (required, same length).
	Lifetimes []Lifetime
	// NodeLimit bounds the nodes of F's ROBDD (0 = unlimited).
	NodeLimit int
}

// Point is the reliability at one time.
type Point struct {
	T           float64
	Reliability float64 // pessimistic estimate, error ≤ ErrorBound
	ErrorBound  float64
}

// Result is a reliability curve.
type Result struct {
	Points []Point
	// YieldAtZero is R(0), which equals the manufacturing yield Y_M.
	YieldAtZero float64
	// M is the manufacturing truncation point and ROBDDSize the node
	// count of F's ROBDD; BuildTime is the time to compile it.
	M         int
	ROBDDSize int
	BuildTime time.Duration
}

// Curve evaluates the operational reliability at the given time
// points, returned in increasing time order. F's ROBDD is compiled
// once; each time point is one dynamic-programming pass over it.
func Curve(sys *yield.System, opts Options, times []float64) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Lifetimes) != len(sys.Components) {
		return nil, fmt.Errorf("reliability: %d lifetimes for %d components", len(opts.Lifetimes), len(sys.Components))
	}
	for i, lt := range opts.Lifetimes {
		if lt == nil {
			return nil, fmt.Errorf("reliability: nil lifetime for component %d", i)
		}
	}
	if len(times) == 0 {
		return nil, errors.New("reliability: no time points")
	}
	for _, t := range times {
		if t < 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("reliability: invalid time point %v", t)
		}
	}
	start := time.Now()
	cf, err := yield.NewCondFail(sys, yield.Options{Defects: opts.Defects, Epsilon: opts.Epsilon, NodeLimit: opts.NodeLimit})
	if err != nil {
		return nil, fmt.Errorf("reliability: %w", err)
	}
	res := &Result{M: cf.M, ROBDDSize: cf.ROBDDSize, BuildTime: time.Since(start), YieldAtZero: cf.Yield(nil)}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	unrel := make([]float64, len(sys.Components))
	for _, t := range sorted {
		for i, lt := range opts.Lifetimes {
			u := lt.Unreliability(t)
			if u < 0 || u > 1 || math.IsNaN(u) {
				return nil, fmt.Errorf("reliability: lifetime %d returned %v at t=%v", i, u, t)
			}
			unrel[i] = u
		}
		res.Points = append(res.Points, Point{T: t, Reliability: cf.Yield(unrel), ErrorBound: cf.ErrorBound})
	}
	return res, nil
}
