package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-4.571428571) > 1e-6 {
		t.Fatalf("Variance = %v, want ~4.571", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {95, 4.8},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		p1 := 100 * rng.Float64()
		p2 := 100 * rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 0, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean skipping zeros = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestWelchIdenticalGroups(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res := WelchTTest(a, a)
	if res.P < 0.99 {
		t.Fatalf("identical groups p = %v, want ~1", res.P)
	}
}

func TestWelchClearlyDifferentGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 10
	}
	res := WelchTTest(a, b)
	if res.P > 1e-6 {
		t.Fatalf("clearly different groups p = %v, want ~0", res.P)
	}
	if res.T >= 0 {
		t.Fatalf("T = %v, want negative (a < b)", res.T)
	}
}

func TestWelchDegenerateInputs(t *testing.T) {
	if res := WelchTTest([]float64{1}, []float64{1, 2, 3}); res.P != 1 {
		t.Fatalf("tiny group p = %v, want 1", res.P)
	}
	// Two distinct constant groups: zero variance, infinite t.
	res := WelchTTest([]float64{2, 2, 2}, []float64{5, 5, 5})
	if res.P != 0 {
		t.Fatalf("constant distinct groups p = %v, want 0", res.P)
	}
	// Same constant groups.
	res = WelchTTest([]float64{2, 2, 2}, []float64{2, 2, 2})
	if res.P != 1 {
		t.Fatalf("same constant groups p = %v, want 1", res.P)
	}
}

func TestWelchFalsePositiveRate(t *testing.T) {
	// Under the null, p-values should be roughly uniform: count p < 0.05.
	rng := rand.New(rand.NewSource(17))
	const reps = 2000
	rejected := 0
	for r := 0; r < reps; r++ {
		a := make([]float64, 20)
		b := make([]float64, 20)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if WelchTTest(a, b).P < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / reps
	if rate < 0.02 || rate > 0.09 {
		t.Fatalf("null rejection rate = %v, want ~0.05", rate)
	}
}

func TestBonferroni(t *testing.T) {
	if got := Bonferroni(0.05, 10); got != 0.005 {
		t.Fatalf("Bonferroni = %v, want 0.005", got)
	}
	if got := Bonferroni(0.05, 0); got != 0.05 {
		t.Fatalf("Bonferroni(m=0) = %v, want 0.05", got)
	}
}

func TestRegret(t *testing.T) {
	err := []float64{2, 2}
	oracle := []float64{1, 2}
	// ratios {2, 1}; geomean = sqrt(2)
	if got := Regret(err, oracle); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("Regret = %v, want sqrt(2)", got)
	}
}

func TestRegretAtLeastOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		err := make([]float64, n)
		oracle := make([]float64, n)
		for i := range err {
			oracle[i] = rng.Float64() + 0.01
			err[i] = oracle[i] * (1 + rng.Float64())
		}
		return Regret(err, oracle) >= 1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegretPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Regret([]float64{1}, []float64{1, 2})
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v, want 1", got)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.33, 0.7, 0.95} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Fatalf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// I_x(2, 2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.5 + 5*rng.Float64()
		b := 0.5 + 5*rng.Float64()
		x1 := rng.Float64()
		x2 := rng.Float64()
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return RegIncBeta(a, b, x1) <= RegIncBeta(a, b, x2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTKnownQuantile(t *testing.T) {
	// For df=10, |t|=2.228 is the 0.05 two-sided critical value.
	res := WelchTTest(
		[]float64{0.9, 1.1, 1.0, 0.95, 1.05, 1.02},
		[]float64{0.9, 1.1, 1.0, 0.95, 1.05, 1.02},
	)
	if res.P < 0.99 {
		t.Fatalf("p = %v, want ~1", res.P)
	}
	// Directly exercise the t CDF through RegIncBeta: for df=1 (Cauchy),
	// P(|T| > 1) = 0.5.
	p := RegIncBeta(0.5, 0.5, 1/(1+1.0))
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("Cauchy two-sided p at t=1: %v, want 0.5", p)
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 2, 8, 3}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{-5, 0, 10, 50, 77.7, 95, 100, 140} {
		if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
			t.Fatalf("PercentileSorted(%v) = %v, Percentile = %v", p, got, want)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Fatalf("PercentileSorted(nil) = %v, want 0", got)
	}
}

func TestScratchPercentile(t *testing.T) {
	var sc Scratch
	xs := []float64{5, 1, 3}
	for i := 0; i < 3; i++ {
		if got, want := sc.Percentile(xs, 50), Percentile(xs, 50); got != want {
			t.Fatalf("Scratch.Percentile = %v, want %v", got, want)
		}
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Scratch.Percentile mutated its input")
	}
	// After warm-up the scratch must not allocate for same-size inputs.
	if allocs := testing.AllocsPerRun(50, func() { sc.Percentile(xs, 95) }); allocs != 0 {
		t.Fatalf("Scratch.Percentile allocates %v per call, want 0", allocs)
	}
}
