package yield

import (
	"fmt"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/order"
)

func TestModelKeyStability(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	opts := Options{Defects: nb(2, 2), Epsilon: 5e-3}
	k1, m1, err := ModelKey(sys, opts)
	if err != nil {
		t.Fatalf("ModelKey: %v", err)
	}
	k2, m2, err := ModelKey(sys, opts)
	if err != nil {
		t.Fatalf("ModelKey (repeat): %v", err)
	}
	if k1 != k2 || m1 != m2 {
		t.Errorf("key not deterministic: (%s, %d) vs (%s, %d)", k1, m1, k2, m2)
	}
	// The resolved M must be the one Evaluate uses.
	res, err := Evaluate(sys, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if m1 != res.M {
		t.Errorf("ModelKey M=%d, Evaluate M=%d", m1, res.M)
	}
	// A structurally identical rebuild (different gate-construction
	// history is not possible here, but fresh netlist objects are)
	// hashes identically.
	k3, _, err := ModelKey(tmrSystem(0.2, 0.15, 0.15), opts)
	if err != nil {
		t.Fatalf("ModelKey (rebuild): %v", err)
	}
	if k1 != k3 {
		t.Error("identical structure hashed differently")
	}
}

func TestModelKeyIgnoresLethalitiesAndNames(t *testing.T) {
	base := tmrSystem(0.2, 0.15, 0.15)
	opts := Options{Defects: nb(2, 2), Epsilon: 5e-3}
	k1, m1, err := ModelKey(base, opts)
	if err != nil {
		t.Fatalf("ModelKey: %v", err)
	}
	// Different P_i and different component names, same structure, a
	// distribution that resolves to the same M: same compiled model.
	other := tmrSystem(0.19, 0.16, 0.15)
	for i := range other.Components {
		other.Components[i].Name = other.Components[i].Name + "-renamed"
	}
	k2, m2, err := ModelKey(other, opts)
	if err != nil {
		t.Fatalf("ModelKey (perturbed): %v", err)
	}
	if m1 != m2 {
		t.Skipf("perturbation moved M (%d → %d); key comparison not meaningful", m1, m2)
	}
	if k1 != k2 {
		t.Error("key depends on lethalities or names; it must only depend on structure, orderings, ε and M")
	}
}

func TestModelKeyDiscriminates(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	base := Options{Defects: nb(2, 2), Epsilon: 5e-3}
	k0, m0, err := ModelKey(sys, base)
	if err != nil {
		t.Fatalf("ModelKey: %v", err)
	}
	variants := map[string]func() (string, error){
		"epsilon": func() (string, error) {
			k, _, err := ModelKey(sys, Options{Defects: nb(2, 2), Epsilon: 4e-3})
			return k, err
		},
		"mv order": func() (string, error) {
			k, _, err := ModelKey(sys, Options{Defects: nb(2, 2), Epsilon: 5e-3, MVOrder: order.MVWV})
			return k, err
		},
		"bit order": func() (string, error) {
			k, _, err := ModelKey(sys, Options{Defects: nb(2, 2), Epsilon: 5e-3, MVOrder: order.MVTopology, BitOrder: order.BitTopology})
			return k, err
		},
		"node limit": func() (string, error) {
			k, _, err := ModelKey(sys, Options{Defects: nb(2, 2), Epsilon: 5e-3, NodeLimit: 1 << 20})
			return k, err
		},
		"truncation point": func() (string, error) {
			k, m, err := ModelKey(sys, Options{Defects: nb(6, 2), Epsilon: 5e-3})
			if err == nil && m == m0 {
				err = fmt.Errorf("law did not move M from %d", m0)
			}
			return k, err
		},
		"structure": func() (string, error) {
			other := tmrSystem(0.2, 0.15, 0.15)
			out := other.FaultTree.MustOutput()
			other.FaultTree.SetOutput(other.FaultTree.Not(out))
			k, _, err := ModelKey(other, Options{Defects: nb(2, 2), Epsilon: 5e-3})
			return k, err
		},
	}
	for name, fn := range variants {
		k, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestModelKeyValidates(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	if _, _, err := ModelKey(sys, Options{}); err == nil {
		t.Error("expected error for missing distribution")
	}
	if _, _, err := ModelKey(nil, Options{Defects: defects.Poisson{Lambda: 1}}); err == nil {
		t.Error("expected error for nil system")
	}
}
