package yield_test

import (
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

// TestBDDOperationSequence pins the sequence of BDD operations one
// build performs: every bdd.Stats counter of ESEN4x2's coded-ROBDD
// compile at NB(λ=2, α=3.4), ε = 2e-3 (M = 6). The compile peaks at
// 132,226 arena slots, so it crosses two arena page boundaries, grows
// the unique table and the ITE cache eight times and collects once. A
// change to how package bdd stores nodes or cache entries must leave
// every counter as it is; one that moves any of them has changed which
// operations run, not only where their results live.
func TestBDDOperationSequence(t *testing.T) {
	sys, err := benchmarks.ByName("ESEN4x2")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 6 {
		t.Fatalf("M = %d, want 6", res.M)
	}
	want := bdd.Stats{
		Live:               63201,
		PeakLive:           132226,
		ArenaNodes:         132226,
		UniqueTableBuckets: 262144,
		UniqueTableGrowths: 8,
		UniqueTableHits:    5275,
		NodesCreated:       132228,
		ApplyCacheHits:     87993,
		ApplyCacheMisses:   139675,
		ApplyCacheSize:     262144,
		GCs:                1,
		GCFreed:            69028,
	}
	if got := res.Stats.BDD; got != want {
		t.Errorf("coded-ROBDD compile statistics\n got %+v\nwant %+v", got, want)
	}
	if res.CodedROBDDSize != 63196 || res.ROMDDSize != 6995 {
		t.Errorf("coded ROBDD %d nodes, ROMDD %d; want 63196 and 6995", res.CodedROBDDSize, res.ROMDDSize)
	}
}
