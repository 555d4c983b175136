package e2e

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"socyield"
	"socyield/perfbench/harness"
)

func TestPlanServeDeterministic(t *testing.T) {
	a, err := PlanServe(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanServe(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(Ladder) || len(a.Requests) != len(b.Requests) {
		t.Fatalf("%d and %d rungs, want %d", len(a.Requests), len(b.Requests), len(Ladder))
	}
	count := map[harness.Class]int{}
	for r := range a.Requests {
		if len(a.Requests[r]) != len(b.Requests[r]) {
			t.Fatalf("rung %d: %d and %d requests", r, len(a.Requests[r]), len(b.Requests[r]))
		}
		for i, x := range a.Requests[r] {
			y := b.Requests[r][i]
			if x.Due != y.Due || x.Class != y.Class || x.Path != y.Path || !bytes.Equal(x.Body, y.Body) {
				t.Fatalf("rung %d request %d differs between two plans of one seed", r, i)
			}
			count[x.Class]++
			// The lethalities must keep the request on its planned key,
			// or the server would answer it from another class.
			key, m, err := socyield.ModelKey(WithLethalities(x.Spec.Sys, x.Ps), x.Spec.Options())
			if err != nil || key != x.Spec.Key || m != ModelM {
				t.Fatalf("rung %d request %d (%v): key changed by its lethalities (M=%d, %v)", r, i, x.Class, m, err)
			}
		}
	}
	for _, c := range []harness.Class{harness.Hit, harness.Sweep, harness.Warm, harness.Cold} {
		if count[c] == 0 {
			t.Errorf("no %v requests planned", c)
		}
	}
	if len(a.Cold) != count[harness.Cold] {
		t.Errorf("%d cold keys for %d cold requests", len(a.Cold), count[harness.Cold])
	}
	c, err := PlanServe(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Requests[0][0].Body, c.Requests[0][0].Body) && a.Requests[0][0].Due == c.Requests[0][0].Due {
		t.Error("seeds 5 and 6 planned the same first request")
	}
}

func TestSLORate(t *testing.T) {
	rung := func(rate, tail float64, ok bool) RungStats {
		return RungStats{Rate: rate, Hit: harness.TailStat{Value: tail}, MeetsSLO: ok}
	}
	limit := Millis(SLOLimit)
	// The tail reaches the limit halfway, in logs, from 100 to 400.
	got := sloRate([]RungStats{rung(100, limit/2, true), rung(400, limit*2, false)})
	if got < 199.99 || got > 200.01 {
		t.Errorf("interpolated SLO rate %v, want 200", got)
	}
	if got := sloRate([]RungStats{rung(100, 1, true), rung(200, 2, true)}); got != 200 {
		t.Errorf("all rungs meet the SLO: %v, want the last rate", got)
	}
	if got := sloRate([]RungStats{rung(100, 2*limit, false), rung(200, 1, true)}); got != 0 {
		t.Errorf("first rung misses the SLO: %v, want 0", got)
	}
}

// TestServeMix checks the requirements the class shares are derived
// from: RunSeconds is the benchmark's run_seconds, and a plan of that
// length gives each rare class MedianSamples requests in the
// reported rungs, give or take the draw, and every rung SensPerRung
// sensitivity requests.
func TestServeMix(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &bench); err != nil || bench.RunSeconds != RunSeconds {
		t.Fatalf("BENCHMARK.json run_seconds = %d (%v), want RunSeconds = %d", bench.RunSeconds, err, RunSeconds)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := PlanServe(seed, RunSeconds)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[harness.Class]int{}
		for r, reqs := range p.Requests {
			sens := 0
			for _, rq := range reqs {
				if p.Rungs[r].Rate <= ReportRate {
					reported[rq.Class]++
				}
				if rq.Class == harness.Sens {
					sens++
				}
			}
			if sens < SensPerRung/2 {
				t.Errorf("seed %d rung %d: %d sensitivity requests, want about %d", seed, r, sens, SensPerRung)
			}
		}
		for _, c := range []harness.Class{harness.Sweep, harness.Warm, harness.Cold} {
			// Allow three standard deviations of a Poisson count.
			if n := reported[c]; n < MedianSamples-3*10 {
				t.Errorf("seed %d: %d %v requests in the reported rungs, want about %d", seed, n, c, MedianSamples)
			}
		}
	}
}

// Every workload reports the manifest's end-to-end metrics through
// EndToEnd, so its names and units must be exactly the manifest's.
func TestEndToEndMatchesManifest(t *testing.T) {
	m, err := harness.LoadManifest("../../" + harness.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	got := EndToEnd(1, []float64{1, 4}, 1, 1)
	listed, extra, err := harness.Split(got, m.Want(false))
	if err != nil || len(extra) != 0 || len(listed) != len(m.Want(false)) {
		t.Fatalf("EndToEnd against the manifest: extra %v, %v", extra, err)
	}
	if g := got["class_gmean_ms"].Value; g != 2 {
		t.Errorf("class_gmean_ms of 1 and 4 = %v, want 2", g)
	}
}
