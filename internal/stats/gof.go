package stats

import (
	"math"
	"sort"
)

// Goodness-of-fit statistics for the samplers' distributional tests: the
// noise samplers must match their distributions (Laplace, two-sided
// geometric) not just in moments but across the whole CDF, so the test
// suite pins them with one-sample Kolmogorov-Smirnov (continuous) and
// Pearson chi-square (discrete) checks at fixed seeds.

// KSStatistic returns the one-sample Kolmogorov-Smirnov statistic
// D = sup_x |F_n(x) - F(x)| between the empirical CDF of the sample and the
// hypothesized continuous CDF. The sample is copied and sorted; an empty
// sample yields 0.
func KSStatistic(sample []float64, cdf func(float64) float64) float64 {
	n := len(sample)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	var d float64
	for i, x := range s {
		f := cdf(x)
		// The empirical CDF steps from i/n to (i+1)/n at x; the supremum
		// over the step interval is attained at one of the two edges.
		if hi := float64(i+1)/float64(n) - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/float64(n); lo > d {
			d = lo
		}
	}
	return d
}

// KSCriticalValue returns the asymptotic level-alpha critical value for the
// one-sample KS statistic, sqrt(-ln(alpha/2)/2) / sqrt(n): for n draws from
// the hypothesized distribution, P(D > critical) -> alpha as n grows. NaN
// for a non-positive n or an alpha outside (0, 1).
func KSCriticalValue(n int, alpha float64) float64 {
	if n <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	return math.Sqrt(-math.Log(alpha/2) / 2 / float64(n))
}

// ChiSquareStatistic returns Pearson's X-squared = sum (obs-exp)^2 / exp
// over the bins. Mismatched lengths or a bin with non-positive expectation
// yield NaN (merge sparse tail bins before calling).
func ChiSquareStatistic(observed, expected []float64) float64 {
	if len(observed) != len(expected) {
		return math.NaN()
	}
	var x2 float64
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			return math.NaN()
		}
		d := o - e
		x2 += d * d / e
	}
	return x2
}

// ChiSquareCriticalValue returns the level-alpha critical value of the
// chi-square distribution with df degrees of freedom via the Wilson-Hilferty
// cube approximation (relative error well under 1% for df >= 5, the regime
// every caller's binning produces). NaN for a non-positive df or an alpha
// outside (0, 1).
func ChiSquareCriticalValue(df int, alpha float64) float64 {
	if df <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	z := NormalQuantile(1 - alpha)
	k := float64(df)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}

// NormalQuantile returns the standard normal inverse CDF at p in (0, 1),
// using Acklam's rational approximation (absolute error < 1.2e-9 across the
// whole interval). NaN outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	// Coefficients of Acklam's approximation: a rational minimax fit in the
	// central region with matched tail expansions in log space.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
			1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
			6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
			-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
			3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
