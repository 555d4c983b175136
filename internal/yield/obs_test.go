package yield

import (
	"testing"
	"time"

	"socyield/internal/defects"
	"socyield/internal/obs"
)

// TestEvaluateRecorder drives one full evaluation with a recorder and
// a tracer attached and checks the instrumentation contract the CLI's
// -metrics-json and -trace-out outputs depend on: nonzero apply-cache
// activity, engine stats mirrored in Result.Stats, and one root
// "evaluate" phase event whose six phase events carry exactly the
// Result.Phases durations and cover (nearly all of) the root.
func TestEvaluateRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	tr := obs.NewTracer(0)
	res, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	hits := snap.Counters["bdd.apply_cache_hits"]
	misses := snap.Counters["bdd.apply_cache_misses"]
	if misses <= 0 {
		t.Errorf("bdd.apply_cache_misses = %d, want > 0", misses)
	}
	if hits < 0 {
		t.Errorf("bdd.apply_cache_hits = %d, want ≥ 0", hits)
	}
	if created := snap.Counters["bdd.nodes_created"]; created <= 0 {
		t.Errorf("bdd.nodes_created = %d, want > 0", created)
	}
	if n := snap.Counters["mdd.nodes_created"]; n <= 0 {
		t.Errorf("mdd.nodes_created = %d, want > 0", n)
	}

	// Result.Stats must mirror what was published.
	if res.Stats.BDD.ApplyCacheMisses != misses {
		t.Errorf("Result.Stats misses = %d, registry %d", res.Stats.BDD.ApplyCacheMisses, misses)
	}
	if res.Stats.MDD.Nodes <= 0 {
		t.Errorf("Result.Stats.MDD.Nodes = %d, want > 0", res.Stats.MDD.Nodes)
	}
	if len(res.Stats.Convert.EntryNodes) == 0 {
		t.Error("Result.Stats.Convert.EntryNodes empty")
	}
	if res.Stats.ROBDDToROMDDRatio <= 0 {
		t.Errorf("ROBDDToROMDDRatio = %v, want > 0", res.Stats.ROBDDToROMDDRatio)
	}

	// One root phase event named "evaluate" and six phase events, each
	// timed by the clock that filled Result.Phases.
	want := map[string]time.Duration{
		"prepare": res.Phases.Prepare, "encode": res.Phases.Encode, "order": res.Phases.Order,
		"compile": res.Phases.Compile, "convert": res.Phases.Convert, "eval": res.Phases.Eval,
	}
	var roots []obs.TraceEvent
	var covered time.Duration
	for _, ev := range tr.Events() {
		if ev.Cat != "phase" {
			continue
		}
		if ev.Name == "evaluate" {
			roots = append(roots, ev)
			continue
		}
		d, ok := want[ev.Name]
		if !ok {
			t.Errorf("unexpected phase event %q", ev.Name)
			continue
		}
		if ev.Dur != d {
			t.Errorf("phase event %q lasts %v, Result.Phases holds %v", ev.Name, ev.Dur, d)
		}
		delete(want, ev.Name)
		covered += ev.Dur
	}
	for name := range want {
		t.Errorf("phase event %q missing", name)
	}
	if len(roots) != 1 {
		t.Fatalf("got %d root events, want 1", len(roots))
	}
	if root := roots[0]; covered < root.Dur*95/100 {
		t.Errorf("phase events cover %.1f%% of the root event, want ≥ 95%%", 100*float64(covered)/float64(root.Dur))
	}
	if covered != res.Phases.Total() {
		t.Errorf("phase events sum to %v, Phases.Total() = %v", covered, res.Phases.Total())
	}
}

// TestEvaluateNilRecorder checks the disabled path end to end: nil
// recorder, identical numeric result, zeroed registry interactions.
func TestEvaluateNilRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	instr, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Yield != instr.Yield || plain.ErrorBound != instr.ErrorBound || plain.M != instr.M {
		t.Errorf("instrumented run changed the result: %v/%v vs %v/%v",
			plain.Yield, plain.ErrorBound, instr.Yield, instr.ErrorBound)
	}
	// Stats are collected even without a recorder (plain snapshots).
	if plain.Stats.BDD.NodesCreated <= 0 {
		t.Errorf("nil-recorder run lost engine stats: %+v", plain.Stats.BDD)
	}
}

// TestReevaluatorRecorder checks the build-once path fills Phases and
// streams sweep metrics.
func TestReevaluatorRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	re, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if re.Result.Phases.Total() <= 0 {
		t.Error("reevaluator build did not fill Result.Phases")
	}
	if re.Result.Stats.BDD.NodesCreated <= 0 {
		t.Error("reevaluator build did not fill Result.Stats")
	}

	dists := make([]defects.Distribution, 8)
	for i := range dists {
		d, err := defects.NewNegativeBinomial(0.5+0.25*float64(i), 2)
		if err != nil {
			t.Fatal(err)
		}
		dists[i] = d
	}
	ps := []float64{0.2, 0.15, 0.15}
	out := re.Sweep(LambdaGrid(ps, dists), SweepOptions{Workers: 2, Recorder: rec})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("sweep point %d: %v", i, r.Err)
		}
	}
	snap := rec.Snapshot()
	if n := snap.Counters["sweep.passes"]; n != 1 {
		t.Errorf("sweep.passes = %d for one lethality vector, want 1", n)
	}
	if n := snap.Counters["sweep.points"]; n != int64(len(dists)) {
		t.Errorf("sweep.points = %d, want %d", n, len(dists))
	}
	if snap.Histograms["sweep.point_ns"].Count != int64(len(dists)) {
		t.Errorf("sweep.point_ns count = %d, want %d", snap.Histograms["sweep.point_ns"].Count, len(dists))
	}
	if busy := snap.Counters["sweep.busy_ns"]; busy <= 0 {
		t.Errorf("sweep.busy_ns = %d, want > 0", busy)
	}
	if w := snap.Gauges["sweep.workers"]; w != 2 {
		t.Errorf("sweep.workers = %d, want 2", w)
	}

	// An uninstrumented sweep must agree bit for bit.
	plain := re.Sweep(LambdaGrid(ps, dists), SweepOptions{Workers: 1})
	for i := range out {
		if out[i] != plain[i] {
			t.Errorf("instrumented sweep point %d differs: %+v vs %+v", i, out[i], plain[i])
		}
	}
}

// TestConcurrentBuildsShareTracer runs builds on several goroutines
// into one Tracer, as yieldd and the experiments driver do: every
// build must record its root event and each of its six phases once.
func TestConcurrentBuildsShareTracer(t *testing.T) {
	const builds = 4
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	errs := make(chan error, builds)
	for i := 0; i < builds; i++ {
		go func() {
			_, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Tracer: tr})
			errs <- err
		}()
	}
	for i := 0; i < builds; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Cat == "phase" {
			counts[ev.Name]++
		}
	}
	for _, name := range []string{"evaluate", "prepare", "encode", "order", "compile", "convert", "eval"} {
		if counts[name] != builds {
			t.Errorf("%d %q phase events, want %d", counts[name], name, builds)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", tr.Dropped())
	}
}
