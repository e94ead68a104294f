// Package noise implements the randomized primitives every differentially
// private mechanism in this repository is built from: the Laplace mechanism,
// the exponential mechanism, and the samplers the data generator needs
// (binomial and multinomial). All randomness flows through an explicit
// *rand.Rand so experiments are reproducible given a seed.
package noise

import (
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws one sample from the Laplace distribution with mean 0 and the
// given scale (the mechanism adds Laplace(sensitivity/epsilon) noise).
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	// Inverse CDF: u uniform on (-1/2, 1/2). Float64 returns [0, 1), so the
	// raw uniform can be exactly 0, which would make 1+2u exactly 0 and the
	// draw -Inf — an infinite release. Clamp that single value to the
	// smallest positive double the stream produces (the same (0, 1] guard
	// Geometric applies); every other draw is untouched, so the legacy
	// stream stays bit-identical.
	f := rng.Float64()
	if f == 0 {
		f = 0x1p-53
	}
	u := f - 0.5
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// LaplaceVecInto writes x plus independent Laplace(scale) noise on each
// element into a caller-provided destination (len(x)), so per-trial hot
// paths draw noise without allocating. dst must not alias x unless the
// caller no longer needs x.
func LaplaceVecInto(rng *rand.Rand, dst, x []float64, scale float64) []float64 {
	if len(dst) != len(x) {
		panic("noise: LaplaceVecInto length mismatch")
	}
	for i, v := range x {
		dst[i] = v + Laplace(rng, scale)
	}
	return dst
}

// Geometric draws from the two-sided geometric ("discrete Laplace")
// distribution with P(k) proportional to alpha^|k|, alpha = exp(-1/scale).
// It is the integer-valued analogue of Laplace(scale) (Ghosh, Roughgarden
// and Sundararajan's universally optimal mechanism): adding it to a count
// query with sensitivity s and scale s/eps yields eps-DP integral releases.
// A non-positive scale returns 0, mirroring Laplace.
func Geometric(rng *rand.Rand, scale float64) int64 {
	if scale <= 0 {
		return 0
	}
	lnAlpha := -1 / scale
	// Difference of two iid one-sided geometrics on {0,1,...}, each sampled
	// by inversion: floor(ln(U)/ln(alpha)) with U uniform on (0,1].
	g := func() int64 {
		u := 1 - rng.Float64() // (0, 1]: avoids ln(0)
		return int64(math.Log(u) / lnAlpha)
	}
	return g() - g()
}

// ExpMechBuf selects an index from scores using the exponential mechanism:
// index i is chosen with probability proportional to
// exp(epsilon*scores[i]/(2*sens)). Scores are shifted by their maximum
// before exponentiation for numerical stability, which does not change the
// distribution. If epsilon is +Inf the argmax is returned (ties broken
// uniformly), matching the limiting behaviour proved in Lemma 2 of the
// paper. Empty scores or a non-positive finite epsilon are configuration
// errors, returned rather than panicking. weights is a caller-provided
// buffer (len(scores), or nil to allocate), so repeated selections — e.g.
// MWEM's per-round query choice — do not allocate.
func ExpMechBuf(rng *rand.Rand, scores []float64, sensitivity, epsilon float64, weights []float64) (int, error) {
	if len(scores) == 0 {
		return 0, fmt.Errorf("noise: empty score list in exponential mechanism")
	}
	if math.IsInf(epsilon, 1) {
		return argmaxUniform(rng, scores), nil
	}
	if epsilon <= 0 {
		return 0, fmt.Errorf("noise: non-positive epsilon %v in exponential mechanism", epsilon)
	}
	maxScore := scores[0]
	for _, s := range scores[1:] {
		if s > maxScore {
			maxScore = s
		}
	}
	if len(weights) != len(scores) {
		weights = make([]float64, len(scores))
	}
	var total float64
	for i, s := range scores {
		w := math.Exp(epsilon * (s - maxScore) / (2 * sensitivity))
		weights[i] = w
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i, nil
		}
	}
	return len(scores) - 1, nil
}

func argmaxUniform(rng *rand.Rand, scores []float64) int {
	best := scores[0]
	var ties []int
	for i, s := range scores {
		switch {
		case s > best:
			best = s
			ties = ties[:0]
			ties = append(ties, i)
		case s == best:
			ties = append(ties, i)
		}
	}
	return ties[rng.Intn(len(ties))]
}

// Binomial draws an exact sample from Binomial(n, p). For small n it uses
// direct inversion; for large n*p it falls back to a normal-approximation
// rejection step (BTRS-style shortcut: sample a rounded normal and accept if
// in range, retrying with inversion on the residual tail). Exactness matters
// for the data generator's integral-count guarantee, so the large-n path uses
// the exact inverted-CDF walk started near the mode, which is O(sqrt(n*p*q))
// expected steps.
func Binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Work with p <= 1/2 for stability; mirror at the end.
	if p > 0.5 {
		return n - Binomial(rng, n, 1-p)
	}
	np := float64(n) * p
	if np < 30 {
		return binomialInversion(rng, n, p)
	}
	return binomialModeWalk(rng, n, p)
}

// binomialInversion samples by walking the CDF from zero.
func binomialInversion(rng *rand.Rand, n int, p float64) int {
	q := 1 - p
	// P(X=0) = q^n computed in log space to avoid underflow.
	logPMF := float64(n) * math.Log(q)
	pmf := math.Exp(logPMF)
	u := rng.Float64()
	k := 0
	cdf := pmf
	for u > cdf && k < n {
		k++
		pmf *= p / q * float64(n-k+1) / float64(k)
		cdf += pmf
	}
	return k
}

// binomialModeWalk samples exactly by starting the inverted-CDF walk at the
// distribution mode and expanding outward, which keeps the expected number of
// PMF evaluations proportional to the standard deviation.
func binomialModeWalk(rng *rand.Rand, n int, p float64) int {
	q := 1 - p
	mode := int(math.Floor(float64(n+1) * p))
	logPMFMode := logBinomialPMF(n, p, mode)
	u := rng.Float64()
	// Accumulate probability outward from the mode: mode, mode+1, mode-1, ...
	pmfUp := math.Exp(logPMFMode)
	pmfDown := pmfUp
	cum := pmfUp
	if u <= cum {
		return mode
	}
	up, down := mode, mode
	for up < n || down > 0 {
		if up < n {
			up++
			pmfUp *= p / q * float64(n-up+1) / float64(up)
			cum += pmfUp
			if u <= cum {
				return up
			}
		}
		if down > 0 {
			pmfDown *= q / p * float64(down) / float64(n-down+1)
			down--
			cum += pmfDown
			if u <= cum {
				return down
			}
		}
	}
	return mode
}

func logBinomialPMF(n int, p float64, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
}

// Multinomial draws counts for m trials over the categorical distribution p
// (which must be non-negative; it is normalized internally). It uses the
// conditional-binomial decomposition, so the result is an exact multinomial
// sample with sum exactly m. This is the sampling core of the DPBench data
// generator G (Section 5.1).
func Multinomial(rng *rand.Rand, m int, p []float64) []int {
	counts := make([]int, len(p))
	var total float64
	for _, pi := range p {
		if pi < 0 {
			panic("noise: negative probability in multinomial")
		}
		total += pi
	}
	if total == 0 || m <= 0 {
		return counts
	}
	lastPositive := -1
	for i, pi := range p {
		if pi > 0 {
			lastPositive = i
		}
	}
	remainingMass := total
	remaining := m
	for i, pi := range p {
		if remaining == 0 {
			break
		}
		if pi <= 0 {
			continue
		}
		if i == lastPositive {
			// All residual trials land in the final positive cell; this
			// also absorbs any floating-point drift in remainingMass.
			counts[i] = remaining
			break
		}
		frac := pi / remainingMass
		if frac >= 1 {
			counts[i] = remaining
			break
		}
		c := Binomial(rng, remaining, frac)
		counts[i] = c
		remaining -= c
		remainingMass -= pi
	}
	return counts
}
