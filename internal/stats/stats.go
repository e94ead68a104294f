// Package stats provides the statistical machinery DPBench's measurement and
// interpretation standards require (Sections 5.3-5.4 of the paper): summary
// statistics, empirical percentiles, Welch's unpaired t-test with exact
// p-values via the regularized incomplete beta function, Bonferroni
// correction, and the geometric-mean "regret" measure from Section 7.2.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than two
// observations).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. DPBench reports the 95th percentile
// as its risk-averse error measure (Principle 8). It copies xs; repeated
// aggregation should reuse a Scratch instead.
func Percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice; it
// allocates nothing.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Scratch reuses one sort buffer across error-metric computations, so
// aggregating many trial vectors (percentiles per algorithm per setting)
// stays off the allocator. The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	buf []float64
}

// Percentile computes the p-th percentile of xs without mutating it, reusing
// the scratch buffer as sorting space.
func (s *Scratch) Percentile(xs []float64, p float64) float64 {
	s.buf = append(s.buf[:0], xs...)
	sort.Float64s(s.buf)
	return PercentileSorted(s.buf, p)
}

// GeoMean returns the geometric mean of strictly positive values; entries
// that are not positive are skipped. It underpins the regret measure.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// TTestResult reports the outcome of Welch's unpaired two-sample t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs an unpaired two-sample t-test without assuming equal
// variances, as DPBench uses to decide whether the difference between an
// algorithm's error and the minimum error is statistically significant
// (Section 5.3). Degenerate inputs (fewer than two samples per group, or two
// identical constant groups) yield P = 1.
func WelchTTest(a, b []float64) TTestResult {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{P: 1}
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	if se2 == 0 {
		if ma == mb {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / math.Sqrt(se2)
	dfNum := se2 * se2
	dfDen := (va/na)*(va/na)/(na-1) + (vb/nb)*(vb/nb)/(nb-1)
	df := dfNum / dfDen
	return TTestResult{T: t, DF: df, P: studentTTwoSided(t, df)}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTTwoSided returns the two-sided p-value for a Student-t statistic t
// with df degrees of freedom using the identity
// P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2).
func studentTTwoSided(t, df float64) float64 {
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// Bonferroni returns the corrected significance level alpha/m for m
// simultaneous tests (m >= 1). DPBench compares each of nalgs-1 algorithms
// against the best one, so m = nalgs-1.
func Bonferroni(alpha float64, m int) float64 {
	if m < 1 {
		m = 1
	}
	return alpha / float64(m)
}

// Regret computes the geometric mean over settings of err[i]/oracle[i], where
// oracle[i] is the minimum error any algorithm achieved on setting i
// (Section 7.2). Settings where either entry is non-positive are skipped.
func Regret(err, oracle []float64) float64 {
	if len(err) != len(oracle) {
		panic("stats: regret length mismatch")
	}
	ratios := make([]float64, 0, len(err))
	for i := range err {
		if err[i] > 0 && oracle[i] > 0 {
			ratios = append(ratios, err[i]/oracle[i])
		}
	}
	return GeoMean(ratios)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the standard continued-fraction expansion (Lentz's algorithm), the
// same approach as Numerical Recipes' betai. Accurate to ~1e-12 for the
// parameter ranges t-tests produce.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
