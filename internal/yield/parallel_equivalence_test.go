package yield

import (
	"fmt"
	"math/rand"
	"testing"

	"socyield/internal/order"
)

// TestParallelBuildEquivalence runs the full pipeline on randomized
// fault trees with the serial reference engine (BuildWorkers=1) and
// with the concurrent build engine at several worker counts, and
// asserts the results are identical to the last bit. Both engines are
// canonical for the same variable order, so they compile the same
// coded ROBDD function, the layer-parallel conversion builds the same
// ROMDD through the same reducing unique table, and the probability
// traversal — which depends only on the ROMDD's structure, never on
// node numbering or scheduling — performs the same float64 operations:
// yield, M, error bound and both diagram sizes must match under ==,
// not a tolerance, for every worker count.
func TestParallelBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	mvKinds := []order.MVKind{order.MVWeight, order.MVWV, order.MVVW, order.MVTopology, order.MVH4}
	workerCounts := []int{2, 4, 8}
	trees := 25
	if testing.Short() {
		trees = 8
	}
	for i := 0; i < trees; i++ {
		c := 3 + rng.Intn(5) // 3..7 components
		sys := randomOracleSystem(rng, c)
		dist := randomDistribution(rng)
		eps := []float64{5e-2, 1e-2, 2e-3}[rng.Intn(3)]
		opts := Options{
			Defects:      dist,
			Epsilon:      eps,
			MVOrder:      mvKinds[rng.Intn(len(mvKinds))],
			BuildWorkers: 1,
		}
		name := fmt.Sprintf("tree %d (C=%d, %v, ε=%g, mv=%v)", i, c, dist, eps, opts.MVOrder)

		serial, err := Evaluate(sys, opts)
		if err != nil {
			t.Fatalf("%s: serial evaluate: %v", name, err)
		}
		if serial.Stats.BuildWorkers != 1 {
			t.Fatalf("%s: serial run reports BuildWorkers=%d", name, serial.Stats.BuildWorkers)
		}
		for _, workers := range workerCounts {
			popts := opts
			popts.BuildWorkers = workers
			par, err := Evaluate(sys, popts)
			if err != nil {
				t.Fatalf("%s: parallel evaluate (workers=%d): %v", name, workers, err)
			}
			if par.Stats.BuildWorkers != workers {
				t.Errorf("%s: parallel run reports BuildWorkers=%d, want %d", name, par.Stats.BuildWorkers, workers)
			}
			if par.M != serial.M {
				t.Errorf("%s workers=%d: truncation point differs: %d vs %d", name, workers, par.M, serial.M)
			}
			if par.Yield != serial.Yield {
				t.Errorf("%s workers=%d: Y_M differs: %.17g vs %.17g", name, workers, par.Yield, serial.Yield)
			}
			if par.ErrorBound != serial.ErrorBound {
				t.Errorf("%s workers=%d: error bound differs: %.17g vs %.17g", name, workers, par.ErrorBound, serial.ErrorBound)
			}
			// Both diagrams are canonical for the variable order, so the
			// sizes cannot depend on the engine or its scheduling.
			if par.CodedROBDDSize != serial.CodedROBDDSize {
				t.Errorf("%s workers=%d: coded ROBDD size differs: %d vs %d", name, workers, par.CodedROBDDSize, serial.CodedROBDDSize)
			}
			if par.ROMDDSize != serial.ROMDDSize {
				t.Errorf("%s workers=%d: ROMDD size differs: %d vs %d", name, workers, par.ROMDDSize, serial.ROMDDSize)
			}
			// The conversion statistics are layer-set cardinalities and
			// simulation counts over the same entry sets — deterministic.
			if par.Stats.Convert.SimSteps != serial.Stats.Convert.SimSteps {
				t.Errorf("%s workers=%d: SimSteps differ: %d vs %d", name, workers, par.Stats.Convert.SimSteps, serial.Stats.Convert.SimSteps)
			}
			for g := range serial.Stats.Convert.EntryNodes {
				if par.Stats.Convert.EntryNodes[g] != serial.Stats.Convert.EntryNodes[g] {
					t.Errorf("%s workers=%d: EntryNodes[%d] differ: %d vs %d", name, workers, g,
						par.Stats.Convert.EntryNodes[g], serial.Stats.Convert.EntryNodes[g])
				}
			}
		}
	}
}

// TestParallelBuildReevaluator checks the Reevaluator route: a sweep
// on a concurrently built model must be bit-identical to the same
// sweep on a serially built one.
func TestParallelBuildReevaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys := randomOracleSystem(rng, 5)
	dist := randomDistribution(rng)
	base := Options{Defects: dist, Epsilon: 1e-2, BuildWorkers: 1}
	rs, err := NewReevaluator(sys, base)
	if err != nil {
		t.Fatalf("serial reevaluator: %v", err)
	}
	par := base
	par.BuildWorkers = 4
	rp, err := NewReevaluator(sys, par)
	if err != nil {
		t.Fatalf("parallel reevaluator: %v", err)
	}
	if rs.Result.Yield != rp.Result.Yield || rs.Result.ROMDDSize != rp.Result.ROMDDSize {
		t.Fatalf("build results differ: yield %.17g vs %.17g, romdd %d vs %d",
			rs.Result.Yield, rp.Result.Yield, rs.Result.ROMDDSize, rp.Result.ROMDDSize)
	}
	ps := make([]float64, len(sys.Components))
	for i := range ps {
		ps[i] = 0.01 + 0.1*float64(i+1)/float64(len(ps))
	}
	ys, _, err := rs.Yield(ps, dist)
	if err != nil {
		t.Fatal(err)
	}
	yp, _, err := rp.Yield(ps, dist)
	if err != nil {
		t.Fatal(err)
	}
	if ys != yp {
		t.Fatalf("reevaluated yields differ: %.17g vs %.17g", ys, yp)
	}
}

// TestBuildWorkersValidation pins the option semantics: negative is
// rejected, zero resolves to 1, the serial engine.
func TestBuildWorkersValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := randomOracleSystem(rng, 3)
	dist := randomDistribution(rng)
	if _, err := Evaluate(sys, Options{Defects: dist, BuildWorkers: -1}); err == nil {
		t.Fatal("BuildWorkers=-1 accepted")
	}
	res, err := Evaluate(sys, Options{Defects: dist})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BuildWorkers != 1 {
		t.Fatalf("default BuildWorkers resolved to %d, want 1", res.Stats.BuildWorkers)
	}
}
