package yield

import (
	"fmt"
	"math"
)

// maxMoebiusComponents bounds the subset-lattice reference below.
const maxMoebiusComponents = 20

// bruteForceYk returns Y_k, the probability that the system works
// given exactly k lethal defects, for every k = 0..M, by one Möbius
// transform per k over the 2^C failed-component sets, together with
// the prepared model. It evaluates F on every set and shares no
// decision diagram with CondFail, which it is the per-k reference of.
func bruteForceYk(sys *System, opts Options) ([]float64, *prepared, error) {
	p, err := prepare(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	c := len(sys.Components)
	if c > maxMoebiusComponents {
		return nil, nil, fmt.Errorf("yield: Möbius reference limited to %d components, system has %d", maxMoebiusComponents, c)
	}
	// subsetP[mask] = Σ_{i ∈ mask} P'_i.
	size := 1 << c
	subsetP := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		low := mask & (-mask)
		i := 0
		for 1<<i != low {
			i++
		}
		subsetP[mask] = subsetP[mask^low] + p.pprime[i]
	}
	// functioning[mask]: F(mask) == 0.
	functioning := make([]bool, size)
	assign := make([]bool, c)
	for mask := 0; mask < size; mask++ {
		for i := 0; i < c; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		v, err := sys.FaultTree.Eval(assign)
		if err != nil {
			return nil, nil, err
		}
		functioning[mask] = !v
	}
	yk := make([]float64, p.m+1)
	work := make([]float64, size)
	for k := range yk {
		// work[mask] = P(all k lethal defects land within mask)
		// = subsetP[mask]^k; then the Möbius transform over the subset
		// lattice turns it into P(failed set == mask).
		for mask := 0; mask < size; mask++ {
			work[mask] = math.Pow(subsetP[mask], float64(k))
		}
		for bit := 0; bit < c; bit++ {
			for mask := 0; mask < size; mask++ {
				if mask&(1<<bit) != 0 {
					work[mask] -= work[mask^(1<<bit)]
				}
			}
		}
		for mask := 0; mask < size; mask++ {
			if functioning[mask] {
				yk[k] += work[mask]
			}
		}
	}
	return yk, p, nil
}
