package yield_test

import (
	"strings"
	"testing"
	"time"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// TestBuildLeavesNoPhaseGauges builds MS4 at M = 7 (about a second on
// one core) with a Recorder and a BuildState. A build's progress is
// read from its BuildState (yieldd's /v1/builds) and its live nodes
// from the tracer's per-gate events; the registry carries no copy of
// either, so after the build no build.phase* or build.progress gauge
// exists, while the BuildState reads done.
func TestBuildLeavesNoPhaseGauges(t *testing.T) {
	sys, err := benchmarks.ByName("MS4")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	rec, bs := obs.NewRegistry(), obs.NewBuildState()
	start := time.Now()
	re, err := yield.NewReevaluator(sys, yield.Options{Defects: dist, Epsilon: 1e-3, Recorder: rec, BuildState: bs})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Fatalf("the build took %v; it must run for at least 300ms to span several 100ms publishing ticks", d)
	}
	if re.M() != 7 {
		t.Errorf("M = %d, want 7", re.M())
	}
	if st := bs.Snapshot(); st.Phase != obs.BuildDone.String() || st.Progress != 1 {
		t.Errorf("BuildState reads %s / %v after the build, want %s / 1", st.Phase, st.Progress, obs.BuildDone)
	}
	snap := rec.Snapshot()
	var names []string
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.FloatGauges {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "build.phase") || name == "build.progress" {
			t.Errorf("registry holds gauge %s after the build", name)
		}
	}
	if snap.Gauges["bdd.live"] <= 0 {
		t.Errorf("bdd.live = %d, want the engine's end-of-build count", snap.Gauges["bdd.live"])
	}
}
