// Package benchmarks generates the two scalable systems-on-chip the
// paper evaluates the method on (Section 3): the master–slave SoC MSn
// of Figure 4 and the ESENnxm SoC of Figure 5, built around a
// fault-tolerant multistage interconnection network.
//
// The component inventories match Table 1 of the paper exactly (C =
// 6+6n for MSn; C = nm + n(log2 n + 3)/1... see the arithmetic in the
// functions below, matching all eleven rows). The authors' exact
// gate-level netlists are not published, so the structure functions are
// documented reconstructions; gate counts are reported alongside the
// paper's in EXPERIMENTS.md.
package benchmarks

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"socyield/internal/logic"
	"socyield/internal/yield"
)

// The MSn defect-lethality weights relative to a master IP, and the
// total lethality probability P_L. The paper fixes P_L = 0.5 and the
// ratios P_IPS/P_IPM and P_C/P_IPM to constants lost in the archival
// copy; these were calibrated against the paper's Table 4 yields: with
// the clustering parameter α = 3.4 they reproduce the published MS2
// (both λ′) and MS6 yields to four decimal places.
// internal/experiments' TestCalibratedConstants checks that they
// minimize that fit on its grid.
const (
	msWeightIPM = 1     // a master IP
	msWeightIPS = 0.445 // a slave IP
	msWeightCM  = 0.099 // a communication module (CM or CS)
	paperPL     = 0.5   // Σ P_i, both families
)

// MS builds the master–slave SoC with n slave clusters: 2 master IPs
// with two communication modules each (one per bus), and per cluster 2
// slave IPs with two communication modules each. Buses are
// defect-free. The system is operational iff some unfailed master can
// communicate directly (bus plus the two communication modules on it)
// with at least one unfailed slave of every cluster.
func MS(n int) (*yield.System, error) {
	if n < 1 {
		return nil, fmt.Errorf("benchmarks: MS needs n ≥ 1 clusters, got %d", n)
	}
	f := logic.New()
	var comps []yield.Component
	var weights []float64
	declare := func(name string, w float64) logic.GateID {
		id := f.Input(name)
		comps = append(comps, yield.Component{Name: name})
		weights = append(weights, w)
		return id
	}
	buses := []string{"A", "B"}
	// Masters and their communication modules.
	ipm := make([]logic.GateID, 2)
	cm := make([][]logic.GateID, 2) // [master][bus]
	for mi := 0; mi < 2; mi++ {
		ipm[mi] = declare(fmt.Sprintf("IPM_%d", mi+1), msWeightIPM)
		cm[mi] = make([]logic.GateID, 2)
	}
	for mi := 0; mi < 2; mi++ {
		for bi, b := range buses {
			cm[mi][bi] = declare(fmt.Sprintf("CM_%d_%s", mi+1, b), msWeightCM)
		}
	}
	// Clusters: slaves and their communication modules.
	ips := make([][]logic.GateID, n)  // [cluster][slave]
	cs := make([][][]logic.GateID, n) // [cluster][slave][bus]
	for j := 0; j < n; j++ {
		ips[j] = make([]logic.GateID, 2)
		cs[j] = make([][]logic.GateID, 2)
		for k := 0; k < 2; k++ {
			ips[j][k] = declare(fmt.Sprintf("IPS_%d_%d", j+1, k+1), msWeightIPS)
		}
		for k := 0; k < 2; k++ {
			cs[j][k] = make([]logic.GateID, 2)
			for bi, b := range buses {
				cs[j][k][bi] = declare(fmt.Sprintf("CS_%d_%d_%s", j+1, k+1, b), msWeightCM)
			}
		}
	}
	// Structure function.
	masters := make([]logic.GateID, 2)
	for mi := 0; mi < 2; mi++ {
		clusters := make([]logic.GateID, 0, n+1)
		clusters = append(clusters, f.Not(ipm[mi]))
		for j := 0; j < n; j++ {
			terms := make([]logic.GateID, 0, 4)
			for k := 0; k < 2; k++ {
				for bi := range buses {
					terms = append(terms, f.And(
						f.Not(cm[mi][bi]),
						f.Not(cs[j][k][bi]),
						f.Not(ips[j][k]),
					))
				}
			}
			clusters = append(clusters, f.Or(terms...))
		}
		masters[mi] = f.And(clusters...)
	}
	f.SetOutput(f.Not(f.Or(masters...)))
	normalize(comps, weights)
	return &yield.System{
		Name:       fmt.Sprintf("MS%d", n),
		Components: comps,
		FaultTree:  f,
	}, nil
}

// The ESENnxm component weights relative to an IPA core, calibrated
// against the paper's six ESEN4x* yields at the calibrated clustering
// α = 3.4 and validated out-of-sample on the ESEN8x* instances;
// internal/experiments' TestCalibratedConstants checks the fit.
const (
	esenWeightIPA = 1
	esenWeightIPB = 1.56
	esenWeightSE  = 0.075
	esenWeightC   = 0.04 // a concentrator
)

// ESEN builds the ESENnxm SoC: n·m/2 IPA cores and n·m/2 IPB cores
// around an enhanced shuffle-exchange network (SEN+: log2(n)+1 stages
// of n/2 2×2 switching elements, two disjoint-in-the-middle paths per
// input/output pair) in which every first- and last-stage switch has a
// redundant copy, and — when m > 1 — n input concentrators and n
// output concentrators each hosting m/2 IPs. Links are defect-free.
// The system is operational iff the network provides full access
// (every input port reaches every output port through its port
// concentrators, when present, and unfailed switches via at least one
// SEN+ path — the Rai–Oh notion) and at least nm/2 − 1 IPA cores and
// nm/2 − 1 IPB cores are unfailed. This formulation reproduces the
// paper's ESEN ROMDDs digit for digit on every instance.
func ESEN(n, m int) (*yield.System, error) {
	if n < 4 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("benchmarks: ESEN needs n a power of two ≥ 4, got %d", n)
	}
	if m != 1 && (m < 2 || m%2 != 0) {
		return nil, fmt.Errorf("benchmarks: ESEN needs m = 1 or an even m ≥ 2, got %d", m)
	}
	k := bits.TrailingZeros(uint(n)) // log2 n
	stages := k + 1
	nIP := n * m / 2

	f := logic.New()
	var comps []yield.Component
	var weights []float64
	declare := func(name string, w float64) logic.GateID {
		id := f.Input(name)
		comps = append(comps, yield.Component{Name: name})
		weights = append(weights, w)
		return id
	}

	ipa := make([]logic.GateID, nIP)
	for a := range ipa {
		ipa[a] = declare(fmt.Sprintf("IPA_%d", a), esenWeightIPA)
	}
	ipb := make([]logic.GateID, nIP)
	for b := range ipb {
		ipb[b] = declare(fmt.Sprintf("IPB_%d", b), esenWeightIPB)
	}
	// Switching elements; first and last stages have redundant copies.
	se := make([][]logic.GateID, stages)
	seR := make([][]logic.GateID, stages)
	for s := 0; s < stages; s++ {
		se[s] = make([]logic.GateID, n/2)
		for j := 0; j < n/2; j++ {
			se[s][j] = declare(fmt.Sprintf("SE_%d_%d", s, j), esenWeightSE)
		}
		if s == 0 || s == stages-1 {
			seR[s] = make([]logic.GateID, n/2)
			for j := 0; j < n/2; j++ {
				seR[s][j] = declare(fmt.Sprintf("SE_%d_%d_r", s, j), esenWeightSE)
			}
		}
	}
	var cin, cout []logic.GateID
	if m > 1 {
		cin = make([]logic.GateID, n)
		for p := range cin {
			cin[p] = declare(fmt.Sprintf("CIN_%d", p), esenWeightC)
		}
		cout = make([]logic.GateID, n)
		for q := range cout {
			cout[q] = declare(fmt.Sprintf("COUT_%d", q), esenWeightC)
		}
	}

	// seOK(s,j): the switch pair works (redundant in first/last stage).
	seOK := func(s, j int) logic.GateID {
		if seR[s] != nil {
			return f.Or(f.Not(se[s][j]), f.Not(seR[s][j]))
		}
		return f.Not(se[s][j])
	}

	// Full access: every input port reaches every output port through
	// at least one of its SEN+ paths.
	pairTerms := make([]logic.GateID, 0, n*n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			paths := enumeratePaths(n, k, p, q)
			alts := make([]logic.GateID, 0, len(paths))
			for _, path := range paths {
				seGates := make([]logic.GateID, 0, stages+2)
				if m > 1 {
					seGates = append(seGates, f.Not(cin[p]))
				}
				for s, j := range path {
					seGates = append(seGates, seOK(s, j))
				}
				if m > 1 {
					seGates = append(seGates, f.Not(cout[q]))
				}
				alts = append(alts, f.And(seGates...))
			}
			pairTerms = append(pairTerms, f.Or(alts...))
		}
	}
	fullAccess := f.And(pairTerms...)

	// Liveness of the IP cores.
	aliveA := make([]logic.GateID, nIP)
	for a := range aliveA {
		aliveA[a] = f.Not(ipa[a])
	}
	aliveB := make([]logic.GateID, nIP)
	for b := range aliveB {
		aliveB[b] = f.Not(ipb[b])
	}
	operational := f.And(
		fullAccess,
		f.AtLeast(nIP-1, aliveA...),
		f.AtLeast(nIP-1, aliveB...),
	)
	f.SetOutput(f.Not(operational))
	normalize(comps, weights)
	return &yield.System{
		Name:       fmt.Sprintf("ESEN%dx%d", n, m),
		Components: comps,
		FaultTree:  f,
	}, nil
}

// enumeratePaths lists the SE sequences (one SE index per stage) of
// every path from input port p to output port q of the SEN+ network:
// input p enters stage 0 at line p; each 2×2 switch can route either
// input line to either of its output lines; a perfect shuffle permutes
// lines between consecutive stages; the line after the last stage is
// the output port.
func enumeratePaths(n, k, p, q int) [][]int {
	shuffle := func(l int) int { return ((l << 1) | (l >> (k - 1))) & (n - 1) }
	stages := k + 1
	var paths [][]int
	var walk func(stage, line int, acc []int)
	walk = func(stage, line int, acc []int) {
		if stage == stages {
			if line == q {
				paths = append(paths, append([]int(nil), acc...))
			}
			return
		}
		j := line >> 1
		for _, out := range []int{2 * j, 2*j + 1} {
			next := out
			if stage < stages-1 {
				next = shuffle(out)
			}
			walk(stage+1, next, append(acc, j))
		}
	}
	walk(0, p, make([]int, 0, stages))
	return paths
}

// normalize scales the collected weights so that Σ P_i = paperPL and
// writes them into the component slice.
func normalize(comps []yield.Component, weights []float64) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i := range comps {
		comps[i].P = paperPL * weights[i] / total
	}
}

// Entry names one paper benchmark and its generator.
type Entry struct {
	Name  string
	Build func() (*yield.System, error)
}

// ByName builds the benchmark with the given name. The eleven Table 1
// names are recognized first; beyond them, generalized "MS<n>" and
// "ESEN<n>x<m>" names instantiate the generators at any size, so the
// CLIs and the evaluation server accept the whole family.
func ByName(name string) (*yield.System, error) {
	for _, e := range PaperBenchmarks() {
		if e.Name == name {
			return e.Build()
		}
	}
	if rest, ok := strings.CutPrefix(name, "MS"); ok {
		if n, err := strconv.Atoi(rest); err == nil {
			return MS(n)
		}
	}
	if rest, ok := strings.CutPrefix(name, "ESEN"); ok {
		if ns, ms, found := strings.Cut(rest, "x"); found {
			n, err1 := strconv.Atoi(ns)
			m, err2 := strconv.Atoi(ms)
			if err1 == nil && err2 == nil {
				return ESEN(n, m)
			}
		}
	}
	return nil, fmt.Errorf("benchmarks: unknown benchmark %q (want MS<n> or ESEN<n>x<m>)", name)
}

// PaperBenchmarks returns the eleven benchmark systems of Table 1, in
// the paper's order.
func PaperBenchmarks() []Entry {
	ms := func(n int) func() (*yield.System, error) {
		return func() (*yield.System, error) { return MS(n) }
	}
	esen := func(n, m int) func() (*yield.System, error) {
		return func() (*yield.System, error) { return ESEN(n, m) }
	}
	return []Entry{
		{Name: "MS2", Build: ms(2)},
		{Name: "MS4", Build: ms(4)},
		{Name: "MS6", Build: ms(6)},
		{Name: "MS8", Build: ms(8)},
		{Name: "MS10", Build: ms(10)},
		{Name: "ESEN4x1", Build: esen(4, 1)},
		{Name: "ESEN4x2", Build: esen(4, 2)},
		{Name: "ESEN4x4", Build: esen(4, 4)},
		{Name: "ESEN8x1", Build: esen(8, 1)},
		{Name: "ESEN8x2", Build: esen(8, 2)},
		{Name: "ESEN8x4", Build: esen(8, 4)},
	}
}

// PaperComponentCounts is Table 1's C column, used to pin the
// reconstruction to the paper.
var PaperComponentCounts = map[string]int{
	"MS2": 18, "MS4": 30, "MS6": 42, "MS8": 54, "MS10": 66,
	"ESEN4x1": 14, "ESEN4x2": 26, "ESEN4x4": 34,
	"ESEN8x1": 32, "ESEN8x2": 56, "ESEN8x4": 72,
}

// PaperGateCounts is Table 1's gate column (the authors' netlists).
var PaperGateCounts = map[string]int{
	"MS2": 27, "MS4": 51, "MS6": 75, "MS8": 99, "MS10": 123,
	"ESEN4x1": 13, "ESEN4x2": 26, "ESEN4x4": 74,
	"ESEN8x1": 73, "ESEN8x2": 122, "ESEN8x4": 314,
}
