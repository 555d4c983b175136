package e2e

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"socyield"
	"socyield/perfbench/harness"
)

// The build workload's defect model: NB(λ=2, α=3.4) with ε = 2e-3.
// Both cases have P_L = 0.5, so λ′ = 1 and M = 6.
const (
	BuildLambda  = 2.0
	BuildAlpha   = 3.4
	BuildEpsilon = 2e-3
)

// BuildCase is one system of the build workload with the results its
// build must reproduce exactly.
type BuildCase struct {
	Name       string
	M          int
	ROMDDNodes int
	Yield      float64
}

// BuildCases are the systems the build workload compiles. ESEN8x2's
// values are the ones every earlier benchmark record of the repository
// reports; MS6's were recorded once from the same pipeline.
var BuildCases = []BuildCase{
	{Name: "ESEN8x2", M: 6, ROMDDNodes: 303657, Yield: 0.8351484141756985},
	{Name: "MS6", M: 6, ROMDDNodes: 103228, Yield: 0.9749896894816648},
}

// BuildOptions returns the build workload's options.
func BuildOptions() socyield.Options {
	return Options(NB(BuildLambda, BuildAlpha), BuildEpsilon)
}

// Check compares a build's M, ROMDD size and yield with the case's
// recorded values, exactly.
func (c BuildCase) Check(m, romddNodes int, yield float64) error {
	if m != c.M || romddNodes != c.ROMDDNodes || yield != c.Yield {
		return fmt.Errorf("%s: M=%d nodes=%d yield=%v, want M=%d nodes=%d yield=%v",
			c.Name, m, romddNodes, yield, c.M, c.ROMDDNodes, c.Yield)
	}
	return nil
}

// RunBuild is the build workload: cold NewReevaluator builds of every
// case, repeated while the budget lasts, in an order drawn from the
// seed. Each build is one sample of its case, and each case is a
// class. The main class is ESEN8x2, the case of every earlier record;
// peak_heap_mb is the largest of the cases' median peak heaps, each
// build being one window.
func RunBuild(a harness.Args, tl *harness.Tally) (map[string]harness.Metric, error) {
	var systems []*socyield.System
	var opts socyield.Options
	// Generating the systems is all the set-up this workload has. It
	// takes about a millisecond, and single set-ups vary by a factor of
	// two, so it is repeated for about a second. On a 2-CPU host, the
	// median of 51 set-ups ranged over ±25% between six processes, that
	// of 501 over ±4%; over ten benchmark runs, the interquartile range
	// of the 501-set-up median was 0.17 of its median.
	setup, err := SetupTimes(501, func() error {
		systems = systems[:0]
		for _, c := range BuildCases {
			sys, err := SystemByName(c.Name)
			if err != nil {
				return err
			}
			systems = append(systems, sys)
		}
		opts = BuildOptions()
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := harness.NewRand(a.Seed, streamBuildOrder)
	buildS := make([][]float64, len(BuildCases))
	peakMB := make([][]float64, len(BuildCases))
	err = Repeat(time.Duration(a.Seconds)*time.Second, func() error {
		for _, i := range rng.Perm(len(BuildCases)) {
			runtime.GC()
			heap := harness.StartHeapSampler(time.Millisecond)
			t0 := time.Now()
			re, err := socyield.NewReevaluator(systems[i], opts)
			buildS[i] = append(buildS[i], time.Since(t0).Seconds())
			peakMB[i] = append(peakMB[i], harness.MB(heap.Stop()))
			if err == nil {
				err = BuildCases[i].Check(re.M(), re.Result.ROMDDSize, re.Result.Yield)
			}
			if !tl.Check(err == nil) {
				fmt.Fprintln(os.Stderr, "build:", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var classMS []float64
	peak := 0.0
	for i, c := range BuildCases {
		ms := 1000 * harness.Median(buildS[i])
		fmt.Printf("%s: %d builds, median %.1fms, median peak heap %.1f MB\n",
			c.Name, len(buildS[i]), ms, harness.Median(peakMB[i]))
		classMS = append(classMS, ms)
		peak = max(peak, harness.Median(peakMB[i]))
	}
	return EndToEnd(classMS[0], classMS, peak, setup), nil
}
