package algo

import (
	"testing"

	"dpbench/internal/matrix"
	"dpbench/internal/noise"
	"dpbench/internal/vec"
)

// TestDataIndependentVarianceMatchesMatrixOracle checks each
// data-independent mechanism's noise against the math rather than against
// the code: IDENTITY, H, HB and 1D PRIVELET are matrix mechanisms (Li et
// al., PODS 2010) over the identity, hierarchical and Haar strategies, whose
// exact per-cell variance under least squares is
// matrix.Mechanism.ExpectedCellVariances. The empirical per-cell variance
// over many seeded trials must match it on average across the cells. A draw
// whose scale disagrees with its charge moves the ratio by the square of the
// error: Privelet's coefficient noise at half scale reads 0.25 here, and
// passes every bitwise test, because none covers Privelet.
func TestDataIndependentVarianceMatchesMatrixOracle(t *testing.T) {
	const (
		n      = 16
		eps    = 0.5
		trials = 20_000
	)
	haar, err := matrix.HaarStrategy(n)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		a        Algorithm
		strategy *matrix.Dense
	}{
		{"IDENTITY", Identity{}, matrix.IdentityStrategy(n)},
		{"H", &H{B: 2}, matrix.HierarchicalStrategy(n, 2)},
		{"HB", Hb{}, matrix.HierarchicalStrategy(n, OptimalBranching(n, 1))},
		{"PRIVELET", Privelet{}, haar},
	}
	x := vec.New(n)
	for i := range x.Data {
		x.Data[i] = float64(3 * i)
	}
	for ci, c := range cases {
		mm, err := matrix.NewMechanism(c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := mm.ExpectedCellVariances(eps)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.a.Plan(x, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		rng := noise.NewRand(uint64(2024 + ci))
		out := make([]float64, n)
		sum := make([]float64, n)
		sumSq := make([]float64, n)
		for tr := 0; tr < trials; tr++ {
			if err := p.Execute(noise.NewMeter(eps, rng), out); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				d := v - x.Data[i]
				sum[i] += d
				sumSq[i] += d * d
			}
		}
		var ratio float64
		for i := range exact {
			mean := sum[i] / trials
			ratio += (sumSq[i]/trials - mean*mean) * trials / (trials - 1) / exact[i]
		}
		ratio /= n
		t.Logf("%s: mean empirical/exact per-cell variance %.4f", c.name, ratio)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: mean empirical/exact per-cell variance %.4f, want within [0.95, 1.05]", c.name, ratio)
		}
	}
}
