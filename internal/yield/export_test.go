package yield

// Hooks for the external tests of this package.

// CheckConversionLayout is checkConversionLayout.
var CheckConversionLayout = checkConversionLayout

// AllMVKinds and AllBitKinds list every MV and bit ordering.
var AllMVKinds, AllBitKinds = allMVKinds, allBitKinds
