// Fixture for the noisegate analyzer, type-checked under the import path
// dpbench/internal/algo so the scope rule applies.
package algo

import (
	"math"
	"math/rand"

	"dpbench/internal/noise"
)

// Signatures may mention the type: threading an rng to the meter is the
// sanctioned pattern.
func clean(eps float64, rng *rand.Rand) float64 {
	m := noise.NewMeter(eps, rng)
	return m.Laplace("x", 1/eps, eps)
}

func construct() *rand.Rand {
	return rand.New(rand.NewSource(1)) // want `direct use of math/rand\.New` `direct use of math/rand\.NewSource`
}

func packageDraw() float64 {
	return rand.Float64() // want `direct use of math/rand\.Float64`
}

func rawDraw(rng *rand.Rand) float64 {
	return rng.ExpFloat64() // want `draw on a raw \*rand\.Rand \(ExpFloat64\)`
}

func handRolled(rng *rand.Rand, scale float64) float64 {
	return -scale * math.Log(rng.Float64()) // want `hand-rolled noise synthesis: math\.Log` `draw on a raw \*rand\.Rand \(Float64\)`
}

func handRolledExp(rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64()) // want `hand-rolled noise synthesis: math\.Exp` `draw on a raw \*rand\.Rand \(NormFloat64\)`
}

// Plain transcendentals over non-random data are fine.
func cleanMath(x float64) float64 {
	return math.Exp(-math.Log(x))
}

func allowedLegacy(rng *rand.Rand) float64 {
	//lint:allow noisegate legacy-sampler fixture: keeps the historical draw sequence
	return rng.Float64()
}
