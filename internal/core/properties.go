package core

import (
	"math"

	"dpbench/internal/algo"
	"dpbench/internal/noise"
	"dpbench/internal/stats"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// ExchangeabilityResult reports one scale-epsilon exchangeability check
// (Definition 4): two settings with equal eps*scale product and the mean
// scaled errors observed at each.
type ExchangeabilityResult struct {
	Algorithm        string
	Scale1, Scale2   int
	Eps1, Eps2       float64
	Err1, Err2       float64
	Ratio            float64 // Err1/Err2; near 1 for exchangeable algorithms
	WithinTolerance  bool
	ToleranceApplied float64
}

// CheckExchangeability runs the algorithm at (scale, eps) and at
// (scale*factor, eps/factor) on the same shape and compares mean scaled
// errors. For a scale-epsilon exchangeable algorithm the two distributions
// are identical, so the ratio of mean errors converges to 1; tol bounds the
// accepted relative deviation given finite trials. With audit set every
// trial runs through the budget-ledger audit (see Config.Audit); the
// result is the same either way.
func CheckExchangeability(a algo.Algorithm, shape *vec.Vector, w *workload.Workload, scale int, eps float64, factor int, trials int, tol float64, seed int64, audit bool) (ExchangeabilityResult, error) {
	res := ExchangeabilityResult{
		Algorithm: a.Name(),
		Scale1:    scale, Eps1: eps,
		Scale2: scale * factor, Eps2: eps / float64(factor),
		ToleranceApplied: tol,
	}
	e1, err := meanScaledError(a, shape, w, scale, eps, trials, seed, audit)
	if err != nil {
		return res, err
	}
	e2, err := meanScaledError(a, shape, w, scale*factor, eps/float64(factor), trials, seed+1, audit)
	if err != nil {
		return res, err
	}
	res.Err1, res.Err2 = e1, e2
	if e2 > 0 {
		res.Ratio = e1 / e2
	}
	res.WithinTolerance = res.Ratio > 0 && res.Ratio > 1/(1+tol) && res.Ratio < 1+tol
	return res, nil
}

// ConsistencyResult reports the error trend of one algorithm as the privacy
// budget grows (Definition 5): a consistent algorithm's error tends to zero.
type ConsistencyResult struct {
	Algorithm string
	Eps       []float64
	Err       []float64
	// Decaying reports whether the final error is a small fraction of the
	// first (the empirical signature of consistency).
	Decaying bool
	// ResidualAtMax is the last error relative to the first; inconsistent
	// algorithms plateau at a bias floor.
	ResidualAtMax float64
}

// CheckConsistency measures mean scaled error along an increasing epsilon
// sweep on a fixed data vector. A residual below decayThreshold marks the
// algorithm as (empirically) consistent. audit is as in
// CheckExchangeability.
func CheckConsistency(a algo.Algorithm, x *vec.Vector, w *workload.Workload, epsSweep []float64, trials int, decayThreshold float64, seed int64, audit bool) (ConsistencyResult, error) {
	res := ConsistencyResult{Algorithm: a.Name(), Eps: epsSweep}
	trueAns, err := w.Evaluate(x)
	if err != nil {
		return res, err
	}
	scale := x.Scale()
	sc := newEvalScratch(w)
	for ei, eps := range epsSweep {
		// One plan per epsilon serves the whole trial loop.
		plan, err := a.Plan(x, w, eps)
		if err != nil {
			return res, err
		}
		est := sc.estBuf(x.N())
		var total float64
		for t := 0; t < trials; t++ {
			rng := newRNG(seed + int64(ei)*911 + int64(t))
			if err := executeTrial(a, plan, eps, rng, est, audit); err != nil {
				return res, err
			}
			sc.ev.Reset(est)
			sc.ev.AnswerAll(sc.estAns)
			total += ScaledError(L2Loss(sc.estAns, trueAns), scale, w.Size())
		}
		res.Err = append(res.Err, total/float64(trials))
	}
	first, last := res.Err[0], res.Err[len(res.Err)-1]
	if first > 0 {
		res.ResidualAtMax = last / first
	}
	res.Decaying = res.ResidualAtMax < decayThreshold
	return res, nil
}

// BiasVariance decomposes an algorithm's expected squared workload error
// into bias^2 and variance components (Finding 9): over repeated runs on a
// fixed data vector, bias is the deviation of the mean answer from truth and
// variance the spread around that mean, both averaged per query and
// normalized by scale^2 to match scaled-error units.
type BiasVariance struct {
	Algorithm string
	Bias2     float64
	Variance  float64
}

// BiasShare returns the fraction of total error attributable to bias.
func (b BiasVariance) BiasShare() float64 {
	total := b.Bias2 + b.Variance
	if total == 0 {
		return 0
	}
	return b.Bias2 / total
}

// MeasureBias runs the algorithm repeatedly and decomposes its error. audit
// is as in CheckExchangeability.
func MeasureBias(a algo.Algorithm, x *vec.Vector, w *workload.Workload, eps float64, trials int, seed int64, audit bool) (BiasVariance, error) {
	out := BiasVariance{Algorithm: a.Name()}
	trueAns, err := w.Evaluate(x)
	if err != nil {
		return out, err
	}
	q := w.Size()
	plan, err := a.Plan(x, w, eps)
	if err != nil {
		return out, err
	}
	sc := newEvalScratch(w)
	est := sc.estBuf(x.N())
	answers := make([][]float64, trials)
	for t := 0; t < trials; t++ {
		rng := newRNG(seed + int64(t)*6_700_417)
		if err := executeTrial(a, plan, eps, rng, est, audit); err != nil {
			return out, err
		}
		sc.ev.Reset(est)
		answers[t] = sc.ev.AnswerAll(nil)
	}
	scale2 := x.Scale() * x.Scale()
	meanAns := make([]float64, q)
	for _, ans := range answers {
		for j, v := range ans {
			meanAns[j] += v
		}
	}
	for j := range meanAns {
		meanAns[j] /= float64(trials)
	}
	var bias2, variance float64
	for j := 0; j < q; j++ {
		d := meanAns[j] - trueAns[j]
		bias2 += d * d
		for _, ans := range answers {
			dv := ans[j] - meanAns[j]
			variance += dv * dv / float64(trials)
		}
	}
	out.Bias2 = bias2 / (float64(q) * scale2)
	out.Variance = variance / (float64(q) * scale2)
	return out, nil
}

// meanScaledError generates a data vector at the requested scale from the
// shape and averages the algorithm's scaled error over trials.
func meanScaledError(a algo.Algorithm, shape *vec.Vector, w *workload.Workload, scale int, eps float64, trials int, seed int64, audit bool) (float64, error) {
	genRNG := newRNG(seed * 2_654_435_761 % math.MaxInt32)
	counts := noise.Multinomial(genRNG, scale, shape.Data)
	x := vec.New(shape.Dims...)
	for i, c := range counts {
		x.Data[i] = float64(c)
	}
	trueAns, err := w.Evaluate(x)
	if err != nil {
		return 0, err
	}
	plan, err := a.Plan(x, w, eps)
	if err != nil {
		return 0, err
	}
	sc := newEvalScratch(w)
	est := sc.estBuf(x.N())
	errs := make([]float64, 0, trials)
	for t := 0; t < trials; t++ {
		rng := newRNG(seed + int64(t)*15_485_863)
		if err := executeTrial(a, plan, eps, rng, est, audit); err != nil {
			return 0, err
		}
		sc.ev.Reset(est)
		sc.ev.AnswerAll(sc.estAns)
		errs = append(errs, ScaledError(L2Loss(sc.estAns, trueAns), float64(scale), w.Size()))
	}
	return stats.Mean(errs), nil
}
