package yield_test

import (
	"strconv"
	"strings"
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// evaluateESEN4x2 builds ESEN4x2 at NB(λ=2, α=3.4), ε = 2e-3 (M = 6)
// with the given tracer, which may be nil.
func evaluateESEN4x2(t *testing.T, tr *obs.Tracer) *yield.Result {
	t.Helper()
	sys, err := benchmarks.ByName("ESEN4x2")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 2e-3, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 6 {
		t.Fatalf("M = %d, want 6", res.M)
	}
	return res
}

// TestBDDOperationSequence pins the sequence of BDD operations one
// build performs: every bdd.Stats counter of ESEN4x2's coded-ROBDD
// compile at M = 6. The compile peaks at 119,553 arena slots, so it
// crosses an arena page boundary, grows the unique table and the ITE
// cache seven times and collects once. A change to how package bdd
// stores nodes or cache entries must leave every counter as it is; one
// that moves any of them has changed which operations run, not only
// where their results live.
func TestBDDOperationSequence(t *testing.T) {
	res := evaluateESEN4x2(t, nil)
	want := bdd.Stats{
		Live:               63201,
		PeakLive:           119553,
		ArenaNodes:         119553,
		UniqueTableBuckets: 131072,
		UniqueTableGrowths: 7,
		UniqueTableHits:    4553,
		NodesCreated:       119555,
		ApplyCacheHits:     78991,
		ApplyCacheMisses:   125989,
		ApplyCacheSize:     131072,
		GCs:                1,
		GCFreed:            56355,
	}
	if got := res.Stats.BDD; got != want {
		t.Errorf("coded-ROBDD compile statistics\n got %+v\nwant %+v", got, want)
	}
	if res.CodedROBDDSize != 63196 || res.ROMDDSize != 6995 {
		t.Errorf("coded ROBDD %d nodes, ROMDD %d; want 63196 and 6995", res.CodedROBDDSize, res.ROMDDSize)
	}
}

// TestGateTraceAccountsForEveryNode checks the per-gate compile trace
// against the build's totals: each event is named by its gate's kind
// and fan-in, the nodes the gates created sum to Stats.NodesCreated,
// and the largest live count any gate reports is the compile peak.
func TestGateTraceAccountsForEveryNode(t *testing.T) {
	tr := obs.NewTracer(0)
	res := evaluateESEN4x2(t, tr)
	var created int64
	var peak, gates int
	for _, ev := range tr.Events() {
		if ev.Cat != "compile" {
			continue
		}
		gates++
		kind, fanin, ok := strings.Cut(ev.Name, "/")
		if _, err := strconv.Atoi(fanin); !ok || kind == "" || err != nil {
			t.Errorf("gate event named %q, want kind/fan-in", ev.Name)
		}
		created += ev.Args["created"].(int64)
		peak = max(peak, ev.Args["live"].(int))
	}
	if tr.Dropped() != 0 || gates == 0 {
		t.Fatalf("%d gate events, %d dropped", gates, tr.Dropped())
	}
	if created != res.Stats.BDD.NodesCreated {
		t.Errorf("gate events created %d nodes in all, Stats.NodesCreated = %d", created, res.Stats.BDD.NodesCreated)
	}
	if peak != res.Stats.CompilePeakLive {
		t.Errorf("largest live count of a gate event = %d, compile peak = %d", peak, res.Stats.CompilePeakLive)
	}
}
