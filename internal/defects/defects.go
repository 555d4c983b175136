// Package defects models the production of manufacturing defects.
//
// The paper's defect model has two ingredients: a distribution Q_k of
// the number of defects on the die (arbitrary; in practice compound
// Poisson, most often negative binomial) and per-component lethality
// probabilities P_i (probability that a given defect lands on component
// i and is lethal). This package provides the distributions, the
// binomial-thinning transform to the lethal-defect distribution Q'_k
// (equation (1) of the paper, with the closed forms for the negative
// binomial and Poisson families), and the truncation-point selection
// M(ε) that gives the method its strict error control.
package defects

import (
	"errors"
	"fmt"
	"math"
)

// Distribution is a probability distribution over the number of
// defects, k = 0, 1, 2, …
type Distribution interface {
	// PMF returns P(number of defects = k). PMF(k) for k < 0 is 0.
	PMF(k int) float64
	// Mean returns the expected number of defects.
	Mean() float64
	// String describes the distribution.
	String() string
}

// Thinner is implemented by distributions with a closed-form
// binomial-thinning transform: keeping each defect independently with
// probability p yields another distribution of the same family.
type Thinner interface {
	Thin(p float64) Distribution
}

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("defects: invalid parameter")

// NegativeBinomial is the widely used compound-Poisson yield model
// (equation (2) of the paper): mean Lambda and clustering parameter
// Alpha (clustering increases as Alpha decreases). Geometric is the
// special case Alpha = 1; the Poisson limit is Alpha → ∞.
type NegativeBinomial struct {
	Lambda float64 // expected number of defects, > 0
	Alpha  float64 // clustering parameter, > 0
}

// NewNegativeBinomial validates the parameters.
func NewNegativeBinomial(lambda, alpha float64) (NegativeBinomial, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return NegativeBinomial{}, fmt.Errorf("%w: negative binomial lambda = %v, need > 0", ErrBadParam, lambda)
	}
	if !(alpha > 0) || math.IsInf(alpha, 0) {
		return NegativeBinomial{}, fmt.Errorf("%w: negative binomial alpha = %v, need > 0", ErrBadParam, alpha)
	}
	return NegativeBinomial{Lambda: lambda, Alpha: alpha}, nil
}

// PMF returns Γ(α+k)/(k!Γ(α)) · (λ/α)^k / (1+λ/α)^(α+k).
func (d NegativeBinomial) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	r := d.Lambda / d.Alpha
	lg1, _ := math.Lgamma(d.Alpha + float64(k))
	lg2, _ := math.Lgamma(float64(k) + 1)
	lg3, _ := math.Lgamma(d.Alpha)
	logp := lg1 - lg2 - lg3 + float64(k)*math.Log(r) - (d.Alpha+float64(k))*math.Log1p(r)
	return math.Exp(logp)
}

// Mean returns Lambda.
func (d NegativeBinomial) Mean() float64 { return d.Lambda }

// Thin returns the lethal-defect distribution: negative binomial with
// mean p·Lambda and the same clustering parameter (Koren, Koren &
// Stapper 1993, as used by the paper).
func (d NegativeBinomial) Thin(p float64) Distribution {
	return NegativeBinomial{Lambda: p * d.Lambda, Alpha: d.Alpha}
}

func (d NegativeBinomial) String() string {
	return fmt.Sprintf("NegativeBinomial(λ=%g, α=%g)", d.Lambda, d.Alpha)
}

// Poisson is the no-clustering defect model.
type Poisson struct {
	Lambda float64 // expected number of defects, > 0
}

// NewPoisson validates the parameter.
func NewPoisson(lambda float64) (Poisson, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return Poisson{}, fmt.Errorf("%w: poisson lambda = %v, need > 0", ErrBadParam, lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// PMF returns e^-λ λ^k / k!.
func (d Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(d.Lambda) - d.Lambda - lg)
}

// Mean returns Lambda.
func (d Poisson) Mean() float64 { return d.Lambda }

// Thin returns Poisson(p·Lambda): Poisson thinning.
func (d Poisson) Thin(p float64) Distribution { return Poisson{Lambda: p * d.Lambda} }

func (d Poisson) String() string { return fmt.Sprintf("Poisson(λ=%g)", d.Lambda) }

// Geometric is the negative binomial with clustering parameter 1,
// parameterized by its mean.
type Geometric struct {
	Lambda float64 // mean, > 0
}

// PMF returns (1-p)p^k with p = λ/(1+λ).
func (d Geometric) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	p := d.Lambda / (1 + d.Lambda)
	return (1 - p) * math.Pow(p, float64(k))
}

// Mean returns Lambda.
func (d Geometric) Mean() float64 { return d.Lambda }

// Thin returns Geometric(p·Lambda).
func (d Geometric) Thin(p float64) Distribution { return Geometric{Lambda: p * d.Lambda} }

func (d Geometric) String() string { return fmt.Sprintf("Geometric(λ=%g)", d.Lambda) }

// Deterministic places all mass on exactly N defects; useful for
// what-if analyses ("yield given exactly k defects") and tests.
type Deterministic struct {
	N int
}

// PMF is the indicator of k == N.
func (d Deterministic) PMF(k int) float64 {
	if k == d.N {
		return 1
	}
	return 0
}

// Mean returns N.
func (d Deterministic) Mean() float64 { return float64(d.N) }

// Thin returns Binomial(N, p).
func (d Deterministic) Thin(p float64) Distribution { return Binomial{N: d.N, P: p} }

func (d Deterministic) String() string { return fmt.Sprintf("Deterministic(%d)", d.N) }

// Binomial is the distribution of surviving defects after thinning a
// deterministic count.
type Binomial struct {
	N int
	P float64
}

// PMF returns C(N,k) P^k (1-P)^(N-k).
func (d Binomial) PMF(k int) float64 {
	if k < 0 || k > d.N {
		return 0
	}
	return math.Exp(logChoose(d.N, k) + float64(k)*math.Log(d.P) + float64(d.N-k)*math.Log1p(-d.P))
}

// Mean returns N·P.
func (d Binomial) Mean() float64 { return float64(d.N) * d.P }

// Thin composes thinnings: Binomial(N, P·p).
func (d Binomial) Thin(p float64) Distribution { return Binomial{N: d.N, P: d.P * p} }

func (d Binomial) String() string { return fmt.Sprintf("Binomial(n=%d, p=%g)", d.N, d.P) }

func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(float64(k) + 1)
	c, _ := math.Lgamma(float64(n-k) + 1)
	return a - b - c
}

// numericThinned implements equation (1) of the paper for arbitrary
// defect distributions without a closed-form thinning:
//
//	Q'_k = Σ_{m≥k} Q_m · C(m,k) · p^k (1-p)^(m-k)
//
// The outer sum is truncated once the base distribution's mass is
// covered to within covTol.
type numericThinned struct {
	base   Distribution
	p      float64
	covTol float64
	maxM   int
}

func (d numericThinned) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	total := 0.0
	covered := 0.0
	lp, lq := math.Log(d.p), math.Log1p(-d.p)
	for m := 0; m <= d.maxM; m++ {
		qm := d.base.PMF(m)
		covered += qm
		if m >= k && qm > 0 {
			var term float64
			if d.p == 1 {
				if m == k {
					term = qm
				}
			} else {
				term = qm * math.Exp(logChoose(m, k)+float64(k)*lp+float64(m-k)*lq)
			}
			total += term
		}
		if covered >= 1-d.covTol && m >= k {
			break
		}
	}
	return total
}

func (d numericThinned) Mean() float64 { return d.p * d.base.Mean() }

func (d numericThinned) String() string {
	return fmt.Sprintf("Thinned(%v, p=%g)", d.base, d.p)
}

// Thin returns the distribution of lethal defects when each defect is
// independently lethal-on-some-component with probability pL (the
// paper's P_L = Σ_i P_i). Distributions implementing Thinner use their
// closed form; any other distribution is thinned numerically via
// equation (1).
func Thin(d Distribution, pL float64) (Distribution, error) {
	if !(pL > 0 && pL <= 1) {
		return nil, fmt.Errorf("%w: thinning probability %v outside (0,1]", ErrBadParam, pL)
	}
	if pL == 1 {
		return d, nil
	}
	if t, ok := d.(Thinner); ok {
		return t.Thin(pL), nil
	}
	return numericThinned{base: d, p: pL, covTol: 1e-12, maxM: 100000}, nil
}

// maxTruncation bounds the truncation search; distributions needing a
// larger M make the combinatorial method intractable anyway.
const maxTruncation = 100000

// ErrNoTruncation is returned when no truncation point satisfying the
// error requirement is found within the search bound.
var ErrNoTruncation = errors.New("defects: no truncation point found (tail too heavy or eps too small)")

// TruncationPoint returns the paper's M = min{ m ≥ 0 : Σ_{k≤m} Q'_k ≥
// 1−eps } together with the actual tail mass 1 − Σ_{k≤M} Q'_k, which
// bounds the absolute yield error from below-truncation.
func TruncationPoint(d Distribution, eps float64) (m int, tail float64, err error) {
	if !(eps > 0 && eps < 1) {
		return 0, 0, fmt.Errorf("%w: eps = %v outside (0,1)", ErrBadParam, eps)
	}
	covered := 0.0
	for k := 0; k <= maxTruncation; k++ {
		covered += d.PMF(k)
		if covered >= 1-eps {
			t := 1 - covered
			if t < 0 {
				t = 0
			}
			return k, t, nil
		}
	}
	return 0, 0, ErrNoTruncation
}

// PMFTable returns [Q'_0 … Q'_M] and the tail mass 1 − ΣQ'_k. This is
// the distribution of the paper's random variable W, whose value M+1
// carries the tail.
func PMFTable(d Distribution, m int) (pmf []float64, tail float64, err error) {
	if m < 0 {
		return nil, 0, fmt.Errorf("%w: truncation point %d < 0", ErrBadParam, m)
	}
	pmf = make([]float64, m+1)
	sum := 0.0
	for k := 0; k <= m; k++ {
		pmf[k] = d.PMF(k)
		sum += pmf[k]
	}
	tail = 1 - sum
	if tail < 0 {
		tail = 0
	}
	return pmf, tail, nil
}
