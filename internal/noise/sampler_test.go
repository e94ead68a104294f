package noise

import (
	"math"
	"testing"

	"dpbench/internal/stats"
)

// The legacy goldens pin the samplers' streams bit for bit; this file pins
// their distributions at fixed seeds: Kolmogorov-Smirnov against the exact
// Laplace CDF and Pearson chi-square against the exact two-sided geometric
// pmf. Fixed seeds make every test deterministic, so a sampler regression
// fails CI outright rather than flaking.

func laplaceCDF(scale float64) func(float64) float64 {
	return func(x float64) float64 {
		if x < 0 {
			return 0.5 * math.Exp(x/scale)
		}
		return 1 - 0.5*math.Exp(-x/scale)
	}
}

func TestLaplaceKS(t *testing.T) {
	const n, scale = 200_000, 2.5
	rng := NewRand(20260808)
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = Laplace(rng, scale)
	}
	d := stats.KSStatistic(sample, laplaceCDF(scale))
	if crit := stats.KSCriticalValue(n, 1e-3); d > crit {
		t.Fatalf("Laplace KS distance %v exceeds critical %v", d, crit)
	}
	if Laplace(rng, 0) != 0 || Laplace(rng, -1) != 0 {
		t.Fatal("non-positive scale must yield 0")
	}
}

func TestLaplaceVecKS(t *testing.T) {
	const n, scale = 200_000, 0.75
	rng := NewRand(31)
	x := make([]float64, n)
	dst := make([]float64, n)
	LaplaceVecInto(rng, dst, x, scale)
	d := stats.KSStatistic(dst, laplaceCDF(scale))
	if crit := stats.KSCriticalValue(n, 1e-3); d > crit {
		t.Fatalf("LaplaceVecInto KS distance %v exceeds critical %v", d, crit)
	}
	// A non-positive scale passes the input through unchanged.
	x[0], x[1] = 3, -7
	LaplaceVecInto(rng, dst, x, 0)
	if dst[0] != 3 || dst[1] != -7 {
		t.Fatal("zero scale must copy the input")
	}
}

func TestGeometricChiSquare(t *testing.T) {
	const (
		n     = 200_000
		scale = 2.0
		lim   = 7 // bins -lim..lim individually, two merged tails
	)
	rng := NewRand(5)
	counts := make(map[int64]float64)
	for i := 0; i < n; i++ {
		counts[Geometric(rng, scale)]++
	}
	alpha := math.Exp(-1 / scale)
	p0 := (1 - alpha) / (1 + alpha)
	var observed, expected []float64
	var loTailObs, hiTailObs float64
	for k, c := range counts {
		if k <= -lim {
			loTailObs += c
		} else if k >= lim {
			hiTailObs += c
		}
	}
	tailMass := p0 * math.Pow(alpha, lim) / (1 - alpha)
	observed = append(observed, loTailObs)
	expected = append(expected, n*tailMass)
	for k := int64(-lim + 1); k < lim; k++ {
		observed = append(observed, counts[k])
		expected = append(expected, n*p0*math.Pow(alpha, math.Abs(float64(k))))
	}
	observed = append(observed, hiTailObs)
	expected = append(expected, n*tailMass)
	x2 := stats.ChiSquareStatistic(observed, expected)
	if crit := stats.ChiSquareCriticalValue(len(observed)-1, 1e-3); !(x2 < crit) {
		t.Fatalf("Geometric chi-square %v exceeds critical %v", x2, crit)
	}
	if Geometric(rng, 0) != 0 || Geometric(rng, -2) != 0 {
		t.Fatal("non-positive scale must yield 0")
	}
}

// TestLaplaceVecParIntoLedger pins the budget arithmetic of the batched
// parallel vector draw: one call charges its label once under parallel
// composition, so repeated calls with the same label cost the maximum —
// exactly the ledger a loop of per-element LaplacePar calls would produce.
func TestLaplaceVecParIntoLedger(t *testing.T) {
	m, err := NewAuditedMeter(1, NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	x := []float64{10, 20, 30}
	dst := make([]float64, len(x))
	m.LaplaceVecParInto("counts", dst, x, 2, 0.4)
	m.LaplaceVecParInto("counts", dst, x, 2, 0.4)
	if got := m.Spent(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("two parallel charges of 0.4 under one label must cost 0.4, ledger says %v", got)
	}
	for _, s := range m.acct.Ledger() {
		if !s.Parallel {
			t.Fatalf("spend %+v not recorded as parallel", s)
		}
	}
	// The draw stream matches the sequential variant exactly: composition
	// kind affects only the ledger, never the noise.
	seq := NewMeter(1, NewRand(7))
	want := seq.LaplaceVecInto("counts", make([]float64, len(x)), x, 2, 0.4)
	par := NewMeter(1, NewRand(7))
	got := par.LaplaceVecParInto("counts", make([]float64, len(x)), x, 2, 0.4)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("parallel vec draw diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}
