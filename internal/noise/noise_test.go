package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLaplaceZeroScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Laplace(rng, 0); got != 0 {
		t.Fatalf("Laplace(0) = %v, want 0", got)
	}
	if got := Laplace(rng, -1); got != 0 {
		t.Fatalf("Laplace(-1) = %v, want 0", got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200_000
	const scale = 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := Laplace(rng, scale)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	// Var(Laplace(b)) = 2 b^2 = 8.
	if math.Abs(variance-8) > 0.3 {
		t.Fatalf("variance = %v, want ~8", variance)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100_000
	neg := 0
	for i := 0; i < n; i++ {
		if Laplace(rng, 1) < 0 {
			neg++
		}
	}
	frac := float64(neg) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("negative fraction = %v, want ~0.5", frac)
	}
}

func TestLaplaceVecDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := []float64{1, 2, 3}
	out := LaplaceVecInto(rng, make([]float64, len(x)), x, 1)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatal("input mutated")
	}
}

func TestLaplaceMechanismRejectsBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1} {
		m := NewMeter(1, rand.New(rand.NewSource(1)))
		dst := []float64{7}
		if out := m.LaplaceMechanismInto("f", dst, []float64{1}, 1, eps); out != nil {
			t.Fatalf("eps = %v: returned %v, want nil", eps, out)
		}
		if m.Err() == nil {
			t.Fatalf("eps = %v: expected a meter error", eps)
		}
		if dst[0] != 7 {
			t.Fatalf("eps = %v: dst written (%v) on a rejected draw", eps, dst[0])
		}
	}
}

// mustExpMech unwraps ExpMechBuf in tests exercising valid configurations.
func mustExpMech(t *testing.T, rng *rand.Rand, scores []float64, sens, eps float64) int {
	t.Helper()
	i, err := ExpMechBuf(rng, scores, sens, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func TestExpMechInfinityPicksArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := []float64{1, 5, 3, 5, 2}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[mustExpMech(t, rng, scores, 1, math.Inf(1))]++
	}
	if counts[0]+counts[2]+counts[4] != 0 {
		t.Fatalf("picked non-max items: %v", counts)
	}
	if counts[1] == 0 || counts[3] == 0 {
		t.Fatalf("ties not broken uniformly: %v", counts)
	}
}

func TestExpMechPrefersHighScores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scores := []float64{0, 10}
	hi := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if mustExpMech(t, rng, scores, 1, 2) == 1 {
			hi++
		}
	}
	// P(pick 1) = e^10 / (e^0 + e^10), essentially 1.
	if float64(hi)/n < 0.99 {
		t.Fatalf("high score picked only %d/%d times", hi, n)
	}
}

func TestExpMechDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	scores := []float64{0, 1}
	eps, sens := 2.0, 1.0
	const n = 200_000
	hi := 0
	for i := 0; i < n; i++ {
		if mustExpMech(t, rng, scores, sens, eps) == 1 {
			hi++
		}
	}
	want := math.Exp(1) / (1 + math.Exp(1)) // eps*score/(2*sens) = 1 vs 0
	got := float64(hi) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("P(hi) = %v, want %v", got, want)
	}
}

func TestExpMechRejectsBadInput(t *testing.T) {
	if _, err := ExpMechBuf(rand.New(rand.NewSource(1)), nil, 1, 1, nil); err == nil {
		t.Fatal("expected an error for empty scores")
	}
	if _, err := ExpMechBuf(rand.New(rand.NewSource(1)), []float64{1, 2}, 1, 0, nil); err == nil {
		t.Fatal("expected an error for eps = 0")
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Binomial(rng, 0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := Binomial(rng, 10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d", got)
	}
	if got := Binomial(rng, 10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d", got)
	}
}

func TestBinomialRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10_000)
		p := rng.Float64()
		k := Binomial(rng, n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBinomialMeanSmallNP(t *testing.T) {
	testBinomialMean(t, 50, 0.1) // inversion path
}

func TestBinomialMeanLargeNP(t *testing.T) {
	testBinomialMean(t, 10_000, 0.3) // mode-walk path
}

func TestBinomialMeanMirroredP(t *testing.T) {
	testBinomialMean(t, 500, 0.9) // p > 1/2 mirror path
}

func testBinomialMean(t *testing.T, n int, p float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const trials = 20_000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		k := float64(Binomial(rng, n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / trials
	wantMean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if math.Abs(mean-wantMean) > 5*sd/math.Sqrt(trials)+1e-9 {
		t.Fatalf("mean = %v, want %v (n=%d p=%v)", mean, wantMean, n, p)
	}
	variance := sumSq/trials - mean*mean
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(variance-wantVar) > 0.1*wantVar+1 {
		t.Fatalf("variance = %v, want %v", variance, wantVar)
	}
}

func TestMultinomialSumsExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		m := rng.Intn(100_000)
		counts := Multinomial(rng, m, p)
		total := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultinomialZeroCellsStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := []float64{0.5, 0, 0.5, 0}
	for trial := 0; trial < 100; trial++ {
		counts := Multinomial(rng, 1000, p)
		if counts[1] != 0 || counts[3] != 0 {
			t.Fatalf("zero-probability cell got mass: %v", counts)
		}
	}
}

func TestMultinomialProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := []float64{0.1, 0.2, 0.3, 0.4}
	const m = 1_000_000
	counts := Multinomial(rng, m, p)
	for i, pi := range p {
		got := float64(counts[i]) / m
		if math.Abs(got-pi) > 0.005 {
			t.Fatalf("cell %d proportion %v, want %v", i, got, pi)
		}
	}
}

func TestMultinomialEmptyAndZeroMass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if counts := Multinomial(rng, 0, []float64{1, 2}); counts[0] != 0 || counts[1] != 0 {
		t.Fatal("m=0 should give all zeros")
	}
	counts := Multinomial(rng, 10, []float64{0, 0})
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatal("zero-mass distribution should give all zeros")
	}
}

func TestMultinomialPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Multinomial(rand.New(rand.NewSource(1)), 10, []float64{0.5, -0.1})
}

func TestMultinomialUnnormalizedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Weights summing to 10 should behave like the normalized version.
	counts := Multinomial(rng, 100_000, []float64{5, 5})
	frac := float64(counts[0]) / 100_000
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("unnormalized weights mishandled: frac = %v", frac)
	}
}
