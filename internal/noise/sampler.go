package noise

import (
	"fmt"
	"math"
	"math/rand"

	"dpbench/internal/vec"
)

// SamplerVersion selects which noise-sampling implementation family a meter
// routes draws through. The legacy samplers (version 0) call math.Log /
// math.Exp per draw and are pinned bit-for-bit by the repository's golden
// tests; the fast samplers replace the per-draw transcendentals with
// table-accelerated inverse-CDF evaluation and a Gumbel-max top-1 selection,
// trading the exact legacy stream for roughly half the sampling cost. The
// two versions draw different streams by construction, so the version is
// carried explicitly on the plan (core.Config, release.WithSampler, the
// -sampler CLI flag, the serve roster) and never changes silently.
type SamplerVersion uint8

const (
	// SamplerLegacy is the default: the original per-draw math.Log/math.Exp
	// samplers, bit-identical with every golden and CLI diff in the repo.
	SamplerLegacy SamplerVersion = iota
	// SamplerFast routes draws through the table-accelerated samplers
	// (FastLaplace, FastLaplaceVecInto, FastGeometric, FastExpMechTop1).
	// Outputs are drawn from the same distributions (pinned by the KS,
	// chi-square and pairwise-probability tests in sampler_test.go) but the
	// stream differs from legacy, so fast runs have their own goldens.
	SamplerFast
)

// String returns the CLI spelling of the version ("legacy" or "fast").
func (v SamplerVersion) String() string {
	switch v {
	case SamplerLegacy:
		return "legacy"
	case SamplerFast:
		return "fast"
	}
	return fmt.Sprintf("SamplerVersion(%d)", uint8(v))
}

// ParseSamplerVersion parses the CLI spelling of a sampler version. The
// empty string means the legacy default, so an unset flag keeps the
// golden/repro path.
func ParseSamplerVersion(s string) (SamplerVersion, error) {
	switch s {
	case "", "legacy":
		return SamplerLegacy, nil
	case "fast":
		return SamplerFast, nil
	}
	return SamplerLegacy, fmt.Errorf("noise: unknown sampler version %q (want legacy or fast)", s)
}

// The fast samplers evaluate inverse CDFs by linear interpolation in the
// quantile tables below instead of calling math.Log per draw. A draw maps a
// 64-bit uniform x to the quantile u = x * 2^-64: the top tabBits bits are
// the table index and the remaining bits the interpolation fraction, so each
// draw consumes exactly one uniform. Within tailSlots of the table ends the
// quantile functions curve too hard for the linear segments (and the
// exponential tail is unbounded), so those draws fall back to the exact
// math.Log form at full precision. With 1024 segments and 16 tail slots the
// piecewise-linear CDF error is below 5e-4 in the worst slot and orders of
// magnitude smaller elsewhere — invisible to the KS tests at n = 2e5
// (critical distance ~3e-3) and far below the noise scales the mechanisms
// add. Uniform bits are expanded from one rng.Uint64 key per fastWindow
// draws through the SplitMix64 mixer: deterministic given the meter's RNG,
// and when the backing RNG is the serving layer's crypto-seeded stream an
// observer who inverts some outputs learns at most the remainder of one
// fastWindow-draw window, because every window is re-keyed from the parent
// stream.
const (
	fastTabBits = 10
	fastTabK    = 1 << fastTabBits
	fastTail    = 16
	fastWindow  = 32

	splitMixGamma = 0x9E3779B97F4A7C15

	// fastFracMask extracts the interpolation fraction below the table index.
	fastFracMask = 1<<(64-fastTabBits) - 1
)

var (
	// expQTab[i] = -ln(i/K): the Exp(1) quantile at 1 - i/K (equivalently,
	// -ln of the uniform), tabulated on the uniform grid.
	expQTab [fastTabK + 1]float64
	// gumQTab[i] = -ln(-ln(i/K)): the standard Gumbel quantile function.
	gumQTab [fastTabK + 1]float64

	// Second-level tail tables, refining the first fastTail/K of the uniform
	// range (and, for the Gumbel, the last) at 64x resolution: index i covers
	// u = i/(64K). They turn all but a 2^-12 sliver of the tails into the same
	// lerp as the main table; without them the math.Log fallback runs on ~3%
	// of draws and costs more than the other 97% combined.
	expLoQTab [fastTabK + 1]float64 // -ln(i/(64K))
	gumLoQTab [fastTabK + 1]float64 // -ln(-ln(i/(64K)))
	gumHiQTab [fastTabK + 1]float64 // -ln(-ln(1 - i/(64K)))
)

func init() {
	for i := 1; i < fastTabK; i++ {
		u := float64(i) / fastTabK
		expQTab[i] = -math.Log(u)
		gumQTab[i] = -math.Log(-math.Log(u))
	}
	// The 0 and K knots are never read by the interpolated region (the tail
	// slots fall back to exact evaluation) but are kept finite so an
	// out-of-contract read cannot produce an infinity.
	expQTab[0] = -math.Log(0x1p-54)
	expQTab[fastTabK] = 0
	gumQTab[0] = -math.Log(-math.Log(0x1p-54))
	gumQTab[fastTabK] = -math.Log(-math.Log(1 - 0x1p-53))

	for i := 1; i <= fastTabK; i++ {
		u := float64(i) / (64 * fastTabK)
		expLoQTab[i] = -math.Log(u)
		gumLoQTab[i] = -math.Log(-math.Log(u))
		gumHiQTab[i] = -math.Log(-math.Log(1 - u))
	}
	// Knot 0 of each tail table sits inside the deep-tail fallback region and
	// is never interpolated over; keep it finite.
	expLoQTab[0] = expLoQTab[1]
	gumLoQTab[0] = gumLoQTab[1]
	gumHiQTab[0] = gumHiQTab[1]
}

// gumbelExact maps one 64-bit uniform in a tail of the Gumbel quantile
// table to a standard Gumbel sample, for the fast loops that fall back to
// it: both tails are re-indexed into the second-level tables at 64x
// resolution, and only the outermost 2^-12 of the uniform range pays for
// math.Log.
//
//go:noinline
//dp:hotpath
func gumbelExact(x uint64) float64 {
	if x>>(64-fastTabBits) >= fastTabK-fastTail {
		// High tail: index on 1-u = (2^64-x) * 2^-64.
		if y := (-x) << 6; y>>54 >= fastTail {
			idx := y >> 54
			frac := float64(int64(y&(1<<54-1))) * 0x1p-54
			lo := gumHiQTab[idx]
			return lo + (gumHiQTab[idx+1]-lo)*frac
		}
	} else {
		if y := x << 6; y>>54 >= fastTail {
			idx := y >> 54
			frac := float64(int64(y&(1<<54-1))) * 0x1p-54
			lo := gumLoQTab[idx]
			return lo + (gumLoQTab[idx+1]-lo)*frac
		}
	}
	u := float64(x>>11) * 0x1p-53
	if u < 0x1p-53 {
		u = 0x1p-53
	}
	if u > 1-0x1p-53 {
		u = 1 - 0x1p-53
	}
	return -math.Log(-math.Log(u))
}

// expFromBits maps one 64-bit uniform to an Exp(1) sample (-ln U) via the
// quantile table; only the low tail (U -> 0, where the magnitude diverges)
// needs the exact form.
//
//dp:hotpath
func expFromBits(x uint64) float64 {
	idx := x >> (64 - fastTabBits)
	if idx >= fastTail {
		frac := float64(int64(x&fastFracMask)) * 0x1p-54
		lo := expQTab[idx]
		return lo + (expQTab[idx+1]-lo)*frac
	}
	return expExact(x)
}

// expExact resolves a low-tail draw (the only tail expFromBits falls back
// for) through the second-level table; only u < 2^-12 pays for math.Log.
//
//go:noinline
//dp:hotpath
func expExact(x uint64) float64 {
	if y := x << 6; y>>54 >= fastTail {
		idx := y >> 54
		frac := float64(int64(y&(1<<54-1))) * 0x1p-54
		lo := expLoQTab[idx]
		return lo + (expLoQTab[idx+1]-lo)*frac
	}
	u := float64(x>>11) * 0x1p-53
	if u < 0x1p-53 {
		u = 0x1p-53
	}
	return -math.Log(u)
}

// FastLaplace draws one sample from the Laplace distribution with mean 0 and
// the given scale using the table-accelerated sampler: bit 63 of one uniform
// picks the sign and the remaining bits drive the Exp(1) magnitude. It is the
// SamplerFast counterpart of Laplace — same distribution, different stream.
// Mechanism code must reach it through a Meter (noisegate enforces this).
//
//dp:hotpath
func FastLaplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	x := rng.Uint64()
	e := expFromBits(x << 1)
	if x>>63 == 1 {
		return -scale * e
	}
	return scale * e
}

// FastLaplaceVecInto adds independent Laplace(scale) noise to each element of
// x, writing into dst (len(x)). It is the batched fast path: uniforms are
// expanded in fastWindow-sized blocks from one RNG key each, the noise block
// is synthesized into a stack buffer with pure table arithmetic, and the
// addition runs through vec.AddInto — so neither math.Log calls nor RNG
// method calls appear in the per-element work. dst must not alias x unless
// the caller no longer needs x.
//
//dp:hotpath
func FastLaplaceVecInto(rng *rand.Rand, dst, x []float64, scale float64) []float64 {
	if len(dst) != len(x) {
		panic("noise: LaplaceVecInto length mismatch")
	}
	if scale <= 0 {
		copy(dst, x)
		return dst
	}
	var buf [fastWindow]float64
	n := len(x)
	for i := 0; i < n; {
		blk := n - i
		if blk > fastWindow {
			blk = fastWindow
		}
		s := rng.Uint64()
		for j := 0; j < blk; j++ {
			s += splitMixGamma
			z := s
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			// expFromBits(z << 1), inlined by hand: at inlining cost 102
			// it is over the compiler's budget, and a call per draw
			// erases most of the table's gain.
			u := z << 1
			var e float64
			if idx := u >> (64 - fastTabBits); idx >= fastTail {
				frac := float64(int64(u&fastFracMask)) * 0x1p-54
				lo := expQTab[idx]
				e = lo + (expQTab[idx+1]-lo)*frac
			} else {
				e = expExact(u)
			}
			if z>>63 == 1 {
				e = -e
			}
			buf[j] = scale * e
		}
		vec.AddInto(dst[i:i+blk], x[i:i+blk], buf[:blk])
		i += blk
	}
	return dst
}

// FastGeometric draws from the two-sided geometric (discrete Laplace)
// distribution with P(k) proportional to alpha^|k|, alpha = exp(-1/scale) —
// the same distribution as Geometric — as the difference of two one-sided
// geometrics, each obtained by flooring a table-accelerated Exp(1) magnitude:
// floor(scale * E) is geometric with parameter alpha exactly as
// floor(ln U / ln alpha) is.
//
//dp:hotpath
func FastGeometric(rng *rand.Rand, scale float64) int64 {
	if scale <= 0 {
		return 0
	}
	g1 := int64(scale * expFromBits(rng.Uint64()))
	g2 := int64(scale * expFromBits(rng.Uint64()))
	return g1 - g2
}

// FastExpMechTop1 selects an index from scores with the exponential mechanism
// via the Gumbel-max trick: index i maximizes epsilon*scores[i]/(2*sens) + G_i
// with G_i iid standard Gumbel, which selects i with probability proportional
// to exp(epsilon*scores[i]/(2*sens)) — the identical distribution ExpMechBuf
// samples — without computing a single exponential or materializing a weight
// vector. The per-score work is one table-interpolated Gumbel draw and a
// running argmax, fused in one pass. Scores of -Inf (already-chosen MWEM
// queries) can never win unless every score is -Inf. Input validation and the
// +Inf-epsilon argmax limit match ExpMechBuf.
//
//dp:hotpath
func FastExpMechTop1(rng *rand.Rand, scores []float64, sensitivity, epsilon float64) (int, error) {
	if len(scores) == 0 {
		return 0, fmt.Errorf("noise: empty score list in exponential mechanism")
	}
	if math.IsInf(epsilon, 1) {
		return argmaxUniform(rng, scores), nil
	}
	if epsilon <= 0 {
		return 0, fmt.Errorf("noise: non-positive epsilon %v in exponential mechanism", epsilon)
	}
	if len(scores) == 1 {
		// A one-candidate selection is deterministic; skip the draw. (PHP's
		// late bisection rounds are dominated by width-2 intervals.)
		return 0, nil
	}
	lambda := epsilon / (2 * sensitivity)
	best := math.Inf(-1)
	bi := 0
	n := len(scores)
	for i := 0; i < n; i += fastWindow {
		blk := scores[i:]
		if len(blk) > fastWindow {
			blk = blk[:fastWindow]
		}
		s := rng.Uint64()
		for j, sc := range blk {
			s += splitMixGamma
			z := s
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			// A standard Gumbel from z: the quantile table, exact in the
			// tails. As a function it would cost 104, over the compiler's
			// inlining budget, and a call per draw erases most of the
			// table's gain; FastGumbelVecInto repeats it for that reason.
			var g float64
			if idx := z >> (64 - fastTabBits); idx-fastTail < fastTabK-2*fastTail {
				frac := float64(int64(z&fastFracMask)) * 0x1p-54
				lo := gumQTab[idx]
				g = lo + (gumQTab[idx+1]-lo)*frac
			} else {
				g = gumbelExact(z)
			}
			if v := lambda*sc + g; v > best {
				best, bi = v, i+j
			}
		}
	}
	return bi, nil
}

// FastGumbelVecInto fills dst with iid standard Gumbel samples from the
// table-accelerated sampler. Meter.ExpMechGumbels draws through it for a
// fused Gumbel-max selection (MWEM's fast selection on 1D workloads); the
// distributional tests (KS against the Gumbel CDF) call it directly.
//
//dp:hotpath
func FastGumbelVecInto(rng *rand.Rand, dst []float64) {
	n := len(dst)
	for i := 0; i < n; {
		blk := n - i
		if blk > fastWindow {
			blk = fastWindow
		}
		s := rng.Uint64()
		for j := 0; j < blk; j++ {
			s += splitMixGamma
			z := s
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			// The Gumbel lookup of FastExpMechTop1, inlined by hand for
			// the same reason (inlining cost 104).
			var g float64
			if idx := z >> (64 - fastTabBits); idx-fastTail < fastTabK-2*fastTail {
				frac := float64(int64(z&fastFracMask)) * 0x1p-54
				lo := gumQTab[idx]
				g = lo + (gumQTab[idx+1]-lo)*frac
			} else {
				g = gumbelExact(z)
			}
			dst[i] = g
			i++
		}
	}
}
