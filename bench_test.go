package socyield_test

// One benchmark per evaluation artifact of the paper (Tables 1–4 of
// Munteanu et al., DSN 2003) plus the reproduction ablations. The
// benchmarks run the fast row subset so `go test -bench=.` completes in
// minutes; `cmd/experiments -full` regenerates the complete tables and
// EXPERIMENTS.md records a full run.

import (
	"testing"

	"socyield/internal/experiments"
)

// benchCases is the sub-second row subset used by the Go benchmarks.
func benchCases() []experiments.Case {
	return []experiments.Case{{Benchmark: "MS2", LambdaPrime: 1}, {Benchmark: "ESEN4x1", LambdaPrime: 1}}
}

// BenchmarkTable1Inventory regenerates Table 1: the benchmark systems
// and their component/gate counts.
func BenchmarkTable1Inventory(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 11 {
			b.Fatalf("%d rows, want 11", len(rows))
		}
		for _, r := range rows {
			if r.Components != r.PaperC {
				b.Fatalf("%s: C=%d, paper %d", r.Benchmark, r.Components, r.PaperC)
			}
		}
	}
}

// BenchmarkTable2MVOrderings regenerates Table 2 rows: ROMDD size under
// the seven multiple-valued variable orderings.
func BenchmarkTable2MVOrderings(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table2(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			w, vrw := r.Sizes["w"], r.Sizes["vrw"]
			if w.Failed {
				b.Fatalf("%v: weight ordering failed", r.Case)
			}
			if !vrw.Failed && vrw.Size <= w.Size {
				b.Fatalf("%v: vrw (%d) not worse than w (%d)", r.Case, vrw.Size, w.Size)
			}
		}
	}
}

// BenchmarkTable3BitOrderings regenerates Table 3 rows: coded-ROBDD
// size under the bit-group orderings ml, lm, w.
func BenchmarkTable3BitOrderings(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table3(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Sizes["lm"] != r.Sizes["w"] {
				b.Fatalf("%v: lm and w differ (%v vs %v) — paper finds them identical",
					r.Case, r.Sizes["lm"], r.Sizes["w"])
			}
		}
	}
}

// BenchmarkTable4Method regenerates Table 4 rows: the end-to-end method
// with the paper's chosen heuristics (w + ml).
func BenchmarkTable4Method(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.Table4(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Failed {
				b.Fatalf("%v failed", r.Case)
			}
			if r.ROBDD <= r.ROMDD {
				b.Fatalf("%v: coded ROBDD (%d) not larger than ROMDD (%d)", r.Case, r.ROBDD, r.ROMDD)
			}
		}
	}
}

// BenchmarkAblationDirectMDD compares building the ROMDD through the
// coded ROBDD against direct MDD apply construction.
func BenchmarkAblationDirectMDD(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.AblationDirectMDD(benchCases(), experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.DirectFailed && (!r.SizesAgree || !r.YieldsAgree) {
				b.Fatalf("%v: routes disagree", r.Case)
			}
		}
	}
}

// BenchmarkBaselineMonteCarlo runs the simulation baseline the paper's
// introduction argues against.
func BenchmarkBaselineMonteCarlo(b *testing.B) {
	for b.Loop() {
		rows, err := experiments.BaselineMonteCarlo(benchCases(), 20000, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.WithinThree {
				b.Fatalf("%v: MC %v vs exact %v beyond 3σ", r.Case, r.MC, r.Exact)
			}
		}
	}
}
