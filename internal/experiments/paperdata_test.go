package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

// What the calibrated constants achieve on all fifteen Table 4 rows,
// as README.md and EXPERIMENTS.md state it: every DP yield lies within
// table4Bound of the paper's, the worst row within 1e-4 of the bound,
// and table4Rounded rows round to the paper's three printed decimals.
const (
	table4Bound   = 0.0032
	table4Rounded = 10
)

// weightClass names the class whose shared weight a component takes:
// IPM and IPS in MSn; IPA, IPB and SE in ESENnxm; "C" for the
// communication modules (CM, CS) and the concentrators (CIN, COUT).
func weightClass(name string) string {
	switch p, _, _ := strings.Cut(name, "_"); p {
	case "CM", "CS", "CIN", "COUT":
		return "C"
	default:
		return p
	}
}

// classRatios reads each class's P relative to the ref class's off a
// built system, checking that every member of a class has the same P.
func classRatios(t *testing.T, sys *yield.System, ref string) map[string]float64 {
	t.Helper()
	p := map[string]float64{}
	for _, c := range sys.Components {
		cl := weightClass(c.Name)
		if q, ok := p[cl]; ok && q != c.P {
			t.Fatalf("%s: %s has P = %v, its class %s has %v", sys.Name, c.Name, c.P, cl, q)
		}
		p[cl] = c.P
	}
	r := make(map[string]float64, len(p))
	for cl, q := range p {
		r[cl] = q / p[ref]
	}
	return r
}

// withRatios returns sys with the class ratios r rescaled to the
// paper's P_L = 0.5.
func withRatios(sys *yield.System, r map[string]float64) *yield.System {
	total := 0.0
	for _, c := range sys.Components {
		total += r[weightClass(c.Name)]
	}
	comps := make([]yield.Component, len(sys.Components))
	for i, c := range sys.Components {
		comps[i] = yield.Component{Name: c.Name, P: 0.5 * r[weightClass(c.Name)] / total}
	}
	return &yield.System{Name: sys.Name, Components: comps, FaultTree: sys.FaultTree}
}

// fitScore is the calibration objective: Σ |Y_M − paper| over rows, on
// the exact DP, with the systems' weights set to the ratios r. Every
// row must keep the paper's truncation point, M = 6 at λ′ = 1 and
// M = 10 at λ′ = 2.
func fitScore(t *testing.T, systems map[string]*yield.System, rows []Case, alpha float64, r map[string]float64) float64 {
	t.Helper()
	eps := Config{}.withDefaults().Epsilon
	sum := 0.0
	for _, cs := range rows {
		dist, err := defects.NewNegativeBinomial(2*float64(cs.LambdaPrime), alpha)
		if err != nil {
			t.Fatal(err)
		}
		res, err := yield.BruteForce(withRatios(systems[cs.Benchmark], r), yield.Options{Defects: dist, Epsilon: eps})
		if err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		if want := map[int]int{1: 6, 2: 10}[cs.LambdaPrime]; res.M != want {
			t.Errorf("%v at α = %g: M = %d, want %d", cs, alpha, res.M, want)
		}
		sum += math.Abs(res.Yield - paperTable4[cs].Yield)
	}
	return sum
}

// TestCalibratedConstants checks the constants that the archival copy
// of the paper lost (the clustering α and the MSn and ESENnxm weight
// ratios) against the fit to Table 4 that recovered them, and pins
// what they achieve on Table 4.
//
//   - MS: α, s and c are free; the objective sums MS2 at λ′ = 1 and 2
//     and MS6 at λ′ = 1.
//   - ESEN: b, se and cc are free at the shipped α; the objective sums
//     the six ESEN4x* rows.
//
// Moving any one constant by one grid step, either way, must score
// strictly worse than the shipped point.
func TestCalibratedConstants(t *testing.T) {
	alpha := Config{}.withDefaults().Alpha
	systems := map[string]*yield.System{}
	for _, name := range []string{"MS2", "MS6", "ESEN4x1", "ESEN4x2", "ESEN4x4"} {
		sys, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = sys
	}
	// ESEN4x1 has no concentrators; ESEN4x2 carries every ESEN class.
	msRatios := classRatios(t, systems["MS2"], "IPM")
	esenRatios := classRatios(t, systems["ESEN4x2"], "IPA")

	// The fit's own grid steps: s = P_IPS/P_IPM, c = P_C/P_IPM (CM and
	// CS), b = P_IPB/P_IPA, se = P_SE/P_IPA, cc = P_C/P_IPA (CIN and
	// COUT).
	type move struct {
		name  string
		class string // "" moves α
		step  float64
	}
	fits := []struct {
		name   string
		rows   []Case
		ratios map[string]float64
		moves  []move
	}{
		{"MS", []Case{{"MS2", 1}, {"MS2", 2}, {"MS6", 1}}, msRatios,
			[]move{{"α", "", 0.02}, {"s", "IPS", 0.005}, {"c", "C", 0.001}}},
		{"ESEN", []Case{{"ESEN4x1", 1}, {"ESEN4x1", 2}, {"ESEN4x2", 1}, {"ESEN4x2", 2}, {"ESEN4x4", 1}, {"ESEN4x4", 2}}, esenRatios,
			[]move{{"b", "IPB", 0.01}, {"se", "SE", 0.005}, {"cc", "C", 0.005}}},
	}
	for _, fit := range fits {
		shipped := fitScore(t, systems, fit.rows, alpha, fit.ratios)
		t.Logf("%s: shipped point scores %.4g (α = %g, ratios %v)", fit.name, shipped, alpha, fit.ratios)
		for _, mv := range fit.moves {
			for _, sign := range []float64{-1, 1} {
				a, r := alpha, map[string]float64{}
				for cl, v := range fit.ratios {
					r[cl] = v
				}
				if mv.class == "" {
					a += sign * mv.step
				} else {
					r[mv.class] += sign * mv.step
				}
				got := fitScore(t, systems, fit.rows, a, r)
				label := fmt.Sprintf("%s %+g", mv.name, sign*mv.step)
				if got <= shipped {
					t.Errorf("%s: %s scores %.4g, not worse than the shipped %.4g", fit.name, label, got, shipped)
				} else {
					t.Logf("%s: %s scores %.4g", fit.name, label, got)
				}
			}
		}
	}

	cfg := Config{}.withDefaults()
	worst, worstCase, rounded := 0.0, Case{}, 0
	for _, cs := range PaperCases() {
		dist, err := distribution(cs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, ok := systems[cs.Benchmark]
		if !ok {
			if sys, err = benchmarks.ByName(cs.Benchmark); err != nil {
				t.Fatal(err)
			}
		}
		res, err := yield.BruteForce(sys, yield.Options{Defects: dist, Epsilon: cfg.Epsilon})
		if err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		paper := paperTable4[cs].Yield
		if d := math.Abs(res.Yield - paper); d > worst {
			worst, worstCase = d, cs
		}
		if fmt.Sprintf("%.3f", res.Yield) == fmt.Sprintf("%.3f", paper) {
			rounded++
		}
	}
	t.Logf("Table 4: worst |ΔY| = %.5f (%v); %d of 15 rows round to the paper's", worst, worstCase, rounded)
	if worst > table4Bound || worst <= table4Bound-1e-4 {
		t.Errorf("worst |ΔY| = %.5f (%v), want in (%g, %g]", worst, worstCase, table4Bound-1e-4, table4Bound)
	}
	if rounded != table4Rounded {
		t.Errorf("%d of 15 rows round to the paper's three decimals, want %d", rounded, table4Rounded)
	}
}
