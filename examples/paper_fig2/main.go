// Figure 2 of the paper, regenerated: the small ROMDD for the
// fault-tree function F(x1,x2,x3) = x1·x2 + x3 with M = 2 under the
// multiple-valued ordering v1, v2, w, and the depth-first probability
// traversal that computes P(G(W,V1,V2) = 1).
//
// This example deliberately reaches into the library internals to show
// the machinery the paper illustrates; the other examples stick to the
// public API.
package main

import (
	"fmt"
	"log"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

func main() {
	// F = x1·x2 + x3 — the system is down if component 3 fails or if
	// both 1 and 2 fail.
	f := logic.New()
	x1, x2, x3 := f.Input("x1"), f.Input("x2"), f.Input("x3")
	f.SetOutput(f.Or(f.And(x1, x2), x3))

	// Synthesize G for M = 2: variables w ∈ {0,1,2,3}, v1, v2 ∈ {1,2,3}.
	g, err := encode.BuildG(f, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G(w, v1, v2): %d gates over %d binary variables (w: %d bits, v: %d bits each)\n",
		g.Netlist.NumGates(), g.Netlist.NumInputs(), g.WBits, g.VBits)

	// The figure uses the ordering v1, v2, w (the paper's "vw").
	plan, err := order.Assemble(g.Netlist, g.Groups, order.MVVW, order.BitML)
	if err != nil {
		log.Fatal(err)
	}
	bm := bdd.New(g.Netlist.NumInputs())
	root, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coded ROBDD: %d nodes\n", bm.Size(root))

	groupOf := make([]int, g.Netlist.NumInputs())
	bitOf := make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		nb := len(grp.Bits)
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(nb - 1 - j)
		}
	}
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		log.Fatal(err)
	}
	mm := mdd.MustNew(spec.Domains)
	mroot, err := convert.ToMDD(bm, root, mm, spec)
	if err != nil {
		log.Fatal(err)
	}
	stats := mm.ComputeStats(mroot)
	fmt.Printf("ROMDD: %d nodes (%d internal; per level v1=%d v2=%d w=%d)\n",
		stats.Nodes, stats.Nodes-2, stats.PerLevel[0], stats.PerLevel[1], stats.PerLevel[2])

	// Graphviz rendering of the diagram in the figure. Values of v
	// variables are 0-based here: value i means "component i+1".
	names := make([]string, len(plan.GroupSeq))
	for mvLevel, gi := range plan.GroupSeq {
		names[mvLevel] = g.Groups[gi].Name
	}
	fmt.Println("\nGraphviz (compare with Figure 2):")
	fmt.Print(mm.DOT(mroot, "figure2", names))

	// The probability traversal with an illustrative lethal-defect
	// model: Q'_0..Q'_2 and tail Q'_{≥3}; P'_i per component.
	qprime := []float64{0.55, 0.25, 0.12}
	tail := 1 - (qprime[0] + qprime[1] + qprime[2])
	pprime := []float64{0.3, 0.3, 0.4}
	probs := make([][]float64, 3)
	for mvLevel, gi := range plan.GroupSeq {
		if gi == 0 {
			probs[mvLevel] = append(append([]float64{}, qprime...), tail)
		} else {
			probs[mvLevel] = pprime
		}
	}
	pg1, err := mm.Freeze(mroot).Prob(probs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nP(G=1) = %.6f  ⇒  Y_M = %.6f  (error ≤ Q'_tail = %.3f)\n", pg1, 1-pg1, tail)

	// Independent check: G = 1 iff w ≥ 3 or F fails on the components
	// hit by the first w defects, so summing over every (w, v1, v2)
	// with F itself gives the same probability without any diagram.
	enum := tail
	for w, q := range qprime {
		for v1, p1 := range pprime {
			for v2, p2 := range pprime {
				failed := make([]bool, 3)
				for _, v := range []int{v1, v2}[:w] {
					failed[v] = true
				}
				down, err := f.Eval(failed)
				if err != nil {
					log.Fatal(err)
				}
				if down {
					enum += q * p1 * p2
				}
			}
		}
	}
	fmt.Printf("same probability by enumerating F over (w, v1, v2): P(G=1) = %.6f\n", enum)
}
