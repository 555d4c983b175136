package benchmarks

import (
	"strings"
	"testing"

	"socyield/internal/logic"
	"socyield/internal/yield"
)

func TestPaperComponentCounts(t *testing.T) {
	for _, e := range PaperBenchmarks() {
		sys, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want := PaperComponentCounts[e.Name]
		if got := len(sys.Components); got != want {
			t.Errorf("%s: C = %d, want %d (Table 1)", e.Name, got, want)
		}
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: invalid system: %v", e.Name, err)
		}
		if pl := sys.PL(); pl < 0.5-1e-12 || pl > 0.5+1e-12 {
			t.Errorf("%s: P_L = %v, want 0.5", e.Name, pl)
		}
		if sys.Name != e.Name {
			t.Errorf("system name %q, want %q", sys.Name, e.Name)
		}
	}
}

func TestMSWeightRatios(t *testing.T) {
	sys, err := MS(2)
	if err != nil {
		t.Fatalf("MS: %v", err)
	}
	byPrefix := func(prefix string) float64 {
		for _, c := range sys.Components {
			if strings.HasPrefix(c.Name, prefix) {
				return c.P
			}
		}
		t.Fatalf("no component with prefix %s", prefix)
		return 0
	}
	pIPM, pIPS, pCM, pCS := byPrefix("IPM"), byPrefix("IPS"), byPrefix("CM"), byPrefix("CS")
	if r := pIPS / pIPM; r < 0.444 || r > 0.446 {
		t.Errorf("P_IPS/P_IPM = %v, want 0.445", r)
	}
	if r := pCM / pIPM; r < 0.0985 || r > 0.0995 {
		t.Errorf("P_C/P_IPM = %v, want 0.099", r)
	}
	if pCM != pCS {
		t.Errorf("CM and CS weights differ: %v vs %v", pCM, pCS)
	}
}

// failSet evaluates a fault tree with the named components failed.
// It returns true iff the system is NOT functioning.
func failSet(t *testing.T, sys *yield.System, failed ...string) bool {
	t.Helper()
	assign := make(map[string]bool, len(failed))
	for _, name := range failed {
		if _, ok := sys.FaultTree.InputByName(name); !ok {
			t.Fatalf("unknown component %q", name)
		}
		assign[name] = true
	}
	v, err := sys.FaultTree.EvalNamed(assign)
	if err != nil {
		t.Fatalf("EvalNamed: %v", err)
	}
	return v
}

func TestMSStructureFunction(t *testing.T) {
	sys, err := MS(2)
	if err != nil {
		t.Fatalf("MS: %v", err)
	}
	if failSet(t, sys) {
		t.Error("defect-free MS2 not functioning")
	}
	if !failSet(t, sys, "IPM_1", "IPM_2") {
		t.Error("both masters failed: system must be down")
	}
	if failSet(t, sys, "IPM_1") {
		t.Error("one master failed: second master must carry the system")
	}
	if failSet(t, sys, "IPM_1", "CM_2_A") {
		t.Error("master 2 can still reach every cluster over bus B")
	}
	if !failSet(t, sys, "IPM_1", "CM_2_A", "CM_2_B") {
		t.Error("surviving master lost both buses: system must be down")
	}
	if !failSet(t, sys, "IPS_1_1", "IPS_1_2") {
		t.Error("both slaves of cluster 1 failed: system must be down")
	}
	if failSet(t, sys, "IPS_1_1", "IPS_2_2") {
		t.Error("one slave per cluster failed: each cluster still has one")
	}
	// A slave is unreachable when both of its communication modules
	// fail; with the other slave's modules also gone the cluster is
	// isolated.
	if !failSet(t, sys, "CS_1_1_A", "CS_1_1_B", "CS_1_2_A", "CS_1_2_B") {
		t.Error("cluster 1 fully disconnected: system must be down")
	}
	if failSet(t, sys, "CS_1_1_A", "CS_1_1_B") {
		t.Error("slave 1_2 still reachable: system must be up")
	}
	// Communication must be direct: master 1 on bus A only and slave
	// reachable on bus B only cannot talk — with master 2 fully dead.
	if !failSet(t, sys, "IPM_2", "CM_1_B", "CS_1_1_A", "CS_1_2_A") {
		t.Error("bus mismatch between master modules and slave modules must break cluster 1")
	}
}

func TestMSValidation(t *testing.T) {
	if _, err := MS(0); err == nil {
		t.Error("MS(0) accepted")
	}
}

func TestEnumeratePaths(t *testing.T) {
	for _, n := range []int{4, 8} {
		k := 0
		for 1<<k < n {
			k++
		}
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				paths := enumeratePaths(n, k, p, q)
				if len(paths) != 2 {
					t.Fatalf("n=%d p=%d q=%d: %d paths, want 2", n, p, q, len(paths))
				}
				for _, path := range paths {
					if len(path) != k+1 {
						t.Fatalf("n=%d p=%d q=%d: path length %d, want %d", n, p, q, len(path), k+1)
					}
					if path[0] != p>>1 {
						t.Errorf("first SE %d, want %d", path[0], p>>1)
					}
					if path[len(path)-1] != q>>1 {
						t.Errorf("last SE %d, want %d", path[len(path)-1], q>>1)
					}
				}
				// The two paths must share first and last switches and
				// differ somewhere in between (SEN+ redundancy).
				same := true
				for s := range paths[0] {
					if paths[0][s] != paths[1][s] {
						same = false
					}
				}
				if same {
					t.Errorf("n=%d p=%d q=%d: duplicate paths", n, p, q)
				}
			}
		}
	}
}

func TestESENStructureFunction(t *testing.T) {
	sys, err := ESEN(4, 2) // 4 IPAs, 4 IPBs, threshold 3, concentrators
	if err != nil {
		t.Fatalf("ESEN: %v", err)
	}
	if failSet(t, sys) {
		t.Error("defect-free ESEN4x2 not functioning")
	}
	if failSet(t, sys, "IPA_0") {
		t.Error("one IPA failed (threshold 3 of 4): system must be up")
	}
	if !failSet(t, sys, "IPA_0", "IPA_1") {
		t.Error("two IPAs failed: below threshold, system must be down")
	}
	if failSet(t, sys, "IPA_0", "IPB_0") {
		t.Error("one IPA and one IPB failed: both thresholds still met")
	}
	// A failed concentrator severs its network port, breaking full
	// access (this is the formulation that reproduces the paper's
	// ESEN4x2 ROMDD exactly; for m = 4 it coincides with counting the
	// concentrator's IPs as dead, since losing m/2 = 2 IPs already
	// exceeds the one-failure tolerance).
	if !failSet(t, sys, "CIN_0") {
		t.Error("failed concentrator severs its port: full access lost, system down")
	}
	// First-stage switches are redundant: one copy may fail.
	if failSet(t, sys, "SE_0_0") {
		t.Error("primary first-stage switch failed: redundant copy must cover")
	}
	if !failSet(t, sys, "SE_0_0", "SE_0_0_r") {
		t.Error("both copies of a first-stage switch failed: full access lost")
	}
	// A single middle-stage switch failure is tolerated by the second
	// path; two middle switches of the same stage break full access.
	if failSet(t, sys, "SE_1_0") {
		t.Error("one middle switch failed: SEN+ second path must cover")
	}
	if !failSet(t, sys, "SE_1_0", "SE_1_1") {
		t.Error("whole middle stage dead: full access lost")
	}
}

func TestESENm1HasNoConcentrators(t *testing.T) {
	sys, err := ESEN(4, 1)
	if err != nil {
		t.Fatalf("ESEN: %v", err)
	}
	for _, c := range sys.Components {
		if strings.HasPrefix(c.Name, "CIN") || strings.HasPrefix(c.Name, "COUT") {
			t.Errorf("m=1 system has concentrator %s", c.Name)
		}
	}
	// 2 IPAs, threshold 1: one may fail.
	if failSet(t, sys, "IPA_0") {
		t.Error("one of two IPAs failed: threshold 1 met, system up")
	}
	if !failSet(t, sys, "IPA_0", "IPA_1") {
		t.Error("all IPAs failed: system down")
	}
}

func TestESENValidation(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{3, 1}, {2, 1}, {6, 1}, {4, 3}, {4, 0}, {4, -2}} {
		if _, err := ESEN(tc.n, tc.m); err == nil {
			t.Errorf("ESEN(%d,%d) accepted", tc.n, tc.m)
		}
	}
}

func TestGateCountsStable(t *testing.T) {
	// Pin our reconstructed netlist sizes so accidental generator
	// changes are caught; the paper's own counts (different netlists)
	// are in PaperGateCounts and compared in EXPERIMENTS.md.
	for _, e := range PaperBenchmarks() {
		sys, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		gates := sys.FaultTree.NumGates()
		if gates <= 0 {
			t.Errorf("%s: no gates", e.Name)
		}
		paper := PaperGateCounts[e.Name]
		if gates > 20*paper {
			t.Errorf("%s: %d gates, paper had %d — reconstruction exploded", e.Name, gates, paper)
		}
	}
}

func TestMSGrowsLinearly(t *testing.T) {
	g4, _ := MS(4)
	g8, _ := MS(8)
	c4, c8 := len(g4.Components), len(g8.Components)
	if c8-c4 != 24 { // 6 components per cluster × 4 clusters
		t.Errorf("component growth %d, want 24", c8-c4)
	}
	n4, n8 := g4.FaultTree.NumGates(), g8.FaultTree.NumGates()
	if n8 <= n4 {
		t.Errorf("gate count did not grow: %d -> %d", n4, n8)
	}
}

func TestMonotonicity(t *testing.T) {
	// Structure functions must be monotone: failing more components
	// can never repair the system. Spot-check with nested failure sets.
	sys, err := ESEN(4, 2)
	if err != nil {
		t.Fatalf("ESEN: %v", err)
	}
	sets := [][]string{
		{},
		{"SE_1_0"},
		{"SE_1_0", "IPA_0"},
		{"SE_1_0", "IPA_0", "IPB_3"},
		{"SE_1_0", "IPA_0", "IPB_3", "CIN_2"},
		{"SE_1_0", "IPA_0", "IPB_3", "CIN_2", "SE_1_1"},
	}
	prev := false
	for _, s := range sets {
		cur := failSet(t, sys, s...)
		if prev && !cur {
			t.Fatalf("monotonicity violated at failure set %v", s)
		}
		prev = cur
	}
}

func logicGateKinds(n *logic.Netlist) map[logic.Kind]int {
	s, _ := n.ComputeStats()
	return s.ByKind
}

func TestBenchmarkFaultTreesUseBasicGates(t *testing.T) {
	// The paper's netlists are AND/OR/NOT; ours must be too (no XORs).
	for _, e := range PaperBenchmarks() {
		sys, err := e.Build()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		kinds := logicGateKinds(sys.FaultTree)
		for _, bad := range []logic.Kind{logic.XorKind, logic.XnorKind, logic.NandKind, logic.NorKind} {
			if kinds[bad] > 0 {
				t.Errorf("%s: uses %v gates", e.Name, bad)
			}
		}
	}
}
