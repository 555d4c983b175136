package yield

// Hooks for the external tests of this package.

// CheckConversionLayout is checkConversionLayout.
var CheckConversionLayout = checkConversionLayout

// AllMVKinds and AllBitKinds list every MV and bit ordering.
var AllMVKinds, AllBitKinds = allMVKinds, allBitKinds

// BuildDirectMDD, FlatFreeze and CheckCompactPasses are buildDirectMDD,
// flatFreeze and checkCompactPasses.
var (
	BuildDirectMDD     = buildDirectMDD
	FlatFreeze         = flatFreeze
	CheckCompactPasses = checkCompactPasses
)

// ReclaimDue is reclaimDue.
var ReclaimDue = reclaimDue

// EpsilonForM is epsilonForM.
var EpsilonForM = epsilonForM

// CondVector is condVector without a pass buffer.
func (r *Reevaluator) CondVector(pprime []float64) ([]float64, float64, error) {
	return r.condVector(pprime, nil)
}
