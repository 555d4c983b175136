package yield

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"socyield/internal/logic"
)

// ModelKey canonically identifies the compiled decision diagrams of an
// evaluation: two (system, options) pairs with equal keys compile
// bit-identical coded ROBDDs and ROMDDs, so one Reevaluator built for
// either serves both. The returned m is the truncation point the
// options resolve to. ModelKey and the build resolve M through the
// same function, so a Reevaluator built from the same (system,
// options) has this M by construction and cache hits reproduce the
// uncached pipeline exactly.
//
// The key hashes everything the diagram structure depends on:
//
//   - the fault-tree structure: the output cone in a canonical
//     numbering (gate kinds, fan-in edges, input ordinals) plus the
//     declared component count C — input and component names are
//     excluded, they never reach the diagrams;
//   - the truncation point M (resolved from the defect model, ε and
//     P_L);
//   - the two ordering heuristics and the node budget;
//   - ε itself, so an entry's error-bound contract is part of its
//     identity.
//
// The per-component lethalities P_i and the defect distribution are
// deliberately NOT part of the key beyond their effect on M: the ROMDD
// is independent of them, which is exactly what makes a compiled-model
// cache effective for (λ, α) exploration against a fixed structure.
func ModelKey(sys *System, opts Options) (key string, m int, err error) {
	o, _, m, err := resolveM(sys, opts)
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("socyield-model-v1"))
	wu(uint64(len(sys.Components)))
	wu(uint64(m))
	wu(uint64(o.MVOrder))
	wu(uint64(o.BitOrder))
	wu(uint64(o.NodeLimit))
	wu(math.Float64bits(o.Epsilon))
	if err := hashCone(h.Write, sys.FaultTree); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), m, nil
}

// hashCone feeds a canonical encoding of the output cone of f to
// write: reachable gates renumbered in depth-first post-order (the
// deterministic order VisitDepthFirst defines), each emitted as
// (kind, payload, fan-in...) with fan-in in stored order. Two
// netlists hash equal iff their output cones are structurally
// identical with identical input ordinals — the precise condition for
// the downstream pipeline to behave identically.
func hashCone(write func([]byte) (int, error), f *logic.Netlist) error {
	renum := make(map[logic.GateID]uint64, f.NumNodes())
	var buf [8]byte
	emit := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		write(buf[:])
	}
	return f.VisitDepthFirst(func(id logic.GateID, g logic.Gate) {
		renum[id] = uint64(len(renum))
		emit(uint64(g.Kind))
		switch g.Kind {
		case logic.InputKind:
			emit(uint64(g.Ord))
		case logic.ConstKind:
			if g.Value {
				emit(1)
			} else {
				emit(0)
			}
		default:
			emit(uint64(len(g.Fanin)))
			for _, fid := range g.Fanin {
				emit(renum[fid])
			}
		}
	})
}
