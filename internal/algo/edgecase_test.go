package algo

import (
	"math"
	"math/rand"
	"testing"

	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Degenerate-input and failure-injection tests: empty databases, single-cell
// domains, all-mass-in-one-cell shapes, and tiny budgets. Every mechanism
// must stay finite and well-formed on all of them.

func TestAllAlgorithms1DOnEmptyDatabase(t *testing.T) {
	x := vec.New(32) // scale 0: a database with no records
	w := workload.Prefix(32)
	for _, a := range All(1) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 0.5, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range est {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("cell %d = %v on empty database", i, v)
				}
			}
		})
	}
}

func TestAllAlgorithms2DOnEmptyDatabase(t *testing.T) {
	x := vec.New(8, 8)
	w := workload.RandomRange2D(8, 8, 20, rand.New(rand.NewSource(2)))
	for _, a := range All(2) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 0.5, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range est {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("cell %d = %v on empty database", i, v)
				}
			}
		})
	}
}

func TestAllAlgorithms1DOnSingleCellDomain(t *testing.T) {
	x, _ := vec.FromData([]float64{1000}, 1)
	w := workload.Prefix(1)
	for _, a := range All(1) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 1.0, rand.New(rand.NewSource(4)))
			if err != nil {
				t.Fatal(err)
			}
			if len(est) != 1 {
				t.Fatalf("len = %d", len(est))
			}
			if math.IsNaN(est[0]) || math.IsInf(est[0], 0) {
				t.Fatalf("estimate %v", est[0])
			}
		})
	}
}

func TestAllAlgorithms1DOnPointMass(t *testing.T) {
	// All mass in one cell — the hardest shape for uniformity assumptions.
	x := vec.New(64)
	x.Data[17] = 1e6
	w := workload.Prefix(64)
	for _, a := range All(1) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 0.1, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for i, v := range est {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("cell %d = %v", i, v)
				}
				total += v
			}
			// The total should be in the right order of magnitude for every
			// mechanism at this strong signal.
			if total < 1e5 || total > 1e7 {
				t.Fatalf("total %v wildly off 1e6", total)
			}
		})
	}
}

func TestAllAlgorithms1DOnTinyBudget(t *testing.T) {
	x := test1DVector(32, 1000)
	w := workload.Prefix(32)
	for _, a := range All(1) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 1e-6, rand.New(rand.NewSource(6)))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range est {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("cell %d = %v at eps=1e-6", i, v)
				}
			}
		})
	}
}

func TestAllAlgorithms2DOnTinyGrid(t *testing.T) {
	x := vec.New(2, 2)
	x.Data[0] = 100
	w := workload.RandomRange2D(2, 2, 5, rand.New(rand.NewSource(7)))
	for _, a := range All(2) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			est, err := a.Run(x, w, 1.0, rand.New(rand.NewSource(8)))
			if err != nil {
				t.Fatal(err)
			}
			if len(est) != 4 {
				t.Fatalf("len = %d", len(est))
			}
		})
	}
}

func TestLaplaceDPGuaranteeEmpirical(t *testing.T) {
	// A direct empirical check of Definition 1 for the Laplace mechanism at
	// the core of every algorithm: on neighboring databases differing in
	// one record, the probability of any output interval differs by at most
	// e^eps (up to sampling error). We estimate P[output in bin] on both
	// databases and verify the ratio bound with slack.
	const (
		eps    = 1.0
		trials = 200_000
	)
	rng := rand.New(rand.NewSource(99))
	x1 := vec.New(1)
	x1.Data[0] = 10
	x2 := vec.New(1)
	x2.Data[0] = 11 // neighbor: one extra record
	a := Identity{}
	binOf := func(v float64) int {
		b := int(math.Floor(v-10)) + 10 // bins of width 1 around the truth
		if b < 0 {
			b = 0
		}
		if b > 20 {
			b = 20
		}
		return b
	}
	count1 := make([]float64, 21)
	count2 := make([]float64, 21)
	for i := 0; i < trials; i++ {
		e1, _ := a.Run(x1, nil, eps, rng)
		e2, _ := a.Run(x2, nil, eps, rng)
		count1[binOf(e1[0])]++
		count2[binOf(e2[0])]++
	}
	bound := math.Exp(eps) * 1.25 // slack for sampling error
	for b := 0; b < 21; b++ {
		p1 := count1[b] / trials
		p2 := count2[b] / trials
		if p1 < 0.005 || p2 < 0.005 {
			continue // too rare to estimate the ratio reliably
		}
		if p1/p2 > bound || p2/p1 > bound {
			t.Fatalf("bin %d: probability ratio %v exceeds e^eps=%v",
				b, math.Max(p1/p2, p2/p1), math.Exp(eps))
		}
	}
}

func TestUniformSpreadHelper(t *testing.T) {
	out := make([]float64, 6)
	uniformSpread(out, 2, 5, 9)
	want := []float64{0, 0, 3, 3, 3, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}
