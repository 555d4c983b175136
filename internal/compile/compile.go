// Package compile builds ROBDDs from gate-level netlists.
//
// The netlist is processed gate by gate in topological (depth-first
// leftmost) order, exactly as the paper processes the generalized
// fault tree with the CMU BDD library: every gate's diagram is kept
// referenced while later gates still use it and dereferenced after its
// last fan-out is consumed, with garbage collection allowed to run
// between gates. The manager's peak-live counter therefore measures
// the paper's "peak number of ROBDD nodes".
package compile

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/logic"
)

// Netlist compiles the output cone of n into an ROBDD in m. levels
// maps each input declaration ordinal to its BDD variable level; it
// must be injective over the inputs in the cone, and every level must
// be valid in m. The returned root carries one external reference; the
// caller is responsible for m.Deref when done.
func Netlist(m *bdd.Manager, n *logic.Netlist, levels []int, opts ...Option) (bdd.Node, error) {
	cfg := applyOptions(opts)
	out, ok := n.Output()
	if !ok {
		return bdd.False, logic.ErrNoOutput
	}
	if len(levels) < n.NumInputs() {
		return bdd.False, fmt.Errorf("compile: levels has %d entries, want %d", len(levels), n.NumInputs())
	}
	// Count fan-outs within the cone so intermediate diagrams can be
	// dereferenced as soon as their last consumer is compiled, and
	// record each gate's depth: the longest path to it from an input.
	fanout := make(map[logic.GateID]int, n.NumNodes())
	depth := make([]int32, n.NumNodes())
	var topo []logic.GateID
	if err := n.VisitDepthFirst(func(id logic.GateID, g logic.Gate) {
		topo = append(topo, id)
		for _, f := range g.Fanin {
			fanout[f]++
			depth[id] = max(depth[id], depth[f]+1)
		}
	}); err != nil {
		return bdd.False, err
	}
	fanout[out]++ // the caller is a consumer of the output
	cfg.state.SetTotal(int64(len(topo)))

	results := make(map[logic.GateID]bdd.Node, len(topo))
	var fanin []logic.GateID // scratch for n-ary gate fan-ins
	var operands []bdd.Node
	// byDepth lists a gate's operands shallow first, ties in written
	// order. The n-ary apply pairs operands in the order it is given,
	// so small diagrams near the inputs meet each other before they
	// meet the deep, usually large, ones.
	byDepth := func(g logic.Gate) []bdd.Node {
		fanin = append(fanin[:0], g.Fanin...)
		slices.SortStableFunc(fanin, func(a, b logic.GateID) int { return cmp.Compare(depth[a], depth[b]) })
		operands = operands[:0]
		for _, f := range fanin {
			operands = append(operands, results[f])
		}
		return operands
	}
	release := func(id logic.GateID) {
		fanout[id]--
		if fanout[id] == 0 {
			m.Deref(results[id])
			delete(results, id)
		}
	}
	// On error, drop every still-referenced intermediate.
	cleanup := func() {
		for _, node := range results {
			m.Deref(node)
		}
	}

	for _, id := range topo {
		g := n.Gate(id)
		var t0 time.Time
		var created0 int64
		if cfg.tracer != nil {
			t0 = time.Now()
			created0 = m.Stats().NodesCreated
		}
		var r bdd.Node
		var err error
		switch g.Kind {
		case logic.InputKind:
			lv := levels[n.InputOrdinal(id)]
			r, err = m.Var(lv)
		case logic.ConstKind:
			r = bdd.False
			if g.Value {
				r = bdd.True
			}
		case logic.NotKind:
			r, err = m.Not(results[g.Fanin[0]])
		case logic.AndKind, logic.NandKind:
			// Hand the whole fan-in to the n-ary apply: it dedupes,
			// short-circuits, and reduces pairwise in balanced rounds
			// instead of folding a deep left spine of binary ITEs.
			r, err = m.And(byDepth(g)...)
			if err == nil && g.Kind == logic.NandKind {
				r, err = m.Not(r)
			}
		case logic.OrKind, logic.NorKind:
			r, err = m.Or(byDepth(g)...)
			if err == nil && g.Kind == logic.NorKind {
				r, err = m.Not(r)
			}
		case logic.XorKind, logic.XnorKind:
			r = bdd.False
			for _, f := range g.Fanin {
				r, err = m.Xor(r, results[f])
				if err != nil {
					break
				}
			}
			if err == nil && g.Kind == logic.XnorKind {
				r, err = m.Not(r)
			}
		default:
			err = fmt.Errorf("compile: gate %d has unknown kind %v", id, g.Kind)
		}
		if err != nil {
			cleanup()
			return bdd.False, err
		}
		results[id] = m.Ref(r)
		for _, f := range g.Fanin {
			release(f)
		}
		// Only a GC lowers the live count, so before the GC it is the
		// gate's high-water mark: the gate whose live equals the compile
		// peak made it.
		live := m.Live()
		m.MaybeGC()
		cfg.state.Add(1)
		cfg.state.SetLive(int64(m.Live()))
		if cfg.tracer != nil {
			cfg.tracer.Event(g.Kind.String()+"/"+strconv.Itoa(len(g.Fanin)), "compile", t0, time.Since(t0),
				map[string]any{"created": m.Stats().NodesCreated - created0, "live": live})
		}
	}
	root := results[out]
	// Transfer ownership of the single remaining reference to the
	// caller (fanout[out] was padded by one above, so exactly one
	// reference remains).
	delete(results, out)
	cleanup()
	return root, nil
}
