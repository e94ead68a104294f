package core

import (
	"context"
	"math"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// skewedShape returns a normalized heavy-head shape over n cells.
func skewedShape(n int) *vec.Vector {
	p := vec.New(n)
	var total float64
	for i := range p.Data {
		p.Data[i] = math.Pow(float64(i+1), -1.3)
		total += p.Data[i]
	}
	for i := range p.Data {
		p.Data[i] /= total
	}
	return p
}

func TestExchangeabilityDataIndependent(t *testing.T) {
	// Theorem 1: the matrix-mechanism instances are exactly exchangeable;
	// the empirical ratio must sit near 1.
	shape := skewedShape(128)
	w := workload.Prefix(128)
	for _, name := range []string{"IDENTITY", "PRIVELET", "H", "HB", "GREEDY-H"} {
		a := mustAlgo(t, name)
		res, err := CheckExchangeability(a, shape, w, 20_000, 0.4, 10, 12, 0.5, 5, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.WithinTolerance {
			t.Errorf("%s: exchangeability ratio %v outside tolerance (err1=%v err2=%v)",
				name, res.Ratio, res.Err1, res.Err2)
		}
	}
}

func TestExchangeabilityDataDependent(t *testing.T) {
	// Theorems 9-13: the data-dependent mechanisms are exchangeable too
	// (SF only empirically). Wider tolerance: their error distributions are
	// identical in law but high variance at these trial counts.
	shape := skewedShape(128)
	w := workload.Prefix(128)
	for _, name := range []string{"UNIFORM", "PHP", "EFPA", "DAWA", "AHP", "MWEM"} {
		a := mustAlgo(t, name)
		res, err := CheckExchangeability(a, shape, w, 20_000, 0.4, 10, 12, 1.0, 6, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.WithinTolerance {
			t.Errorf("%s: exchangeability ratio %v outside tolerance (err1=%v err2=%v)",
				name, res.Ratio, res.Err1, res.Err2)
		}
	}
}

func TestConsistencySweep(t *testing.T) {
	// Definition 5 via an eps sweep: consistent algorithms decay, UNIFORM
	// plateaus at its shape bias.
	n := 128
	x := vec.New(n)
	for i := 0; i < n/4; i++ {
		x.Data[i] = 400 // decidedly non-uniform
	}
	w := workload.Prefix(n)
	sweep := []float64{0.01, 0.1, 1, 10, 1000}

	for _, name := range []string{"IDENTITY", "HB", "DAWA", "EFPA"} {
		res, err := CheckConsistency(mustAlgo(t, name), x, w, sweep, 3, 0.01, 11, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Decaying {
			t.Errorf("%s: residual %v, expected decay (consistent algorithm)", name, res.ResidualAtMax)
		}
	}
	res, err := CheckConsistency(mustAlgo(t, "UNIFORM"), x, w, sweep, 3, 0.01, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decaying {
		t.Errorf("UNIFORM: residual %v, expected bias plateau (inconsistent)", res.ResidualAtMax)
	}
}

func TestMWEMInconsistentWithFixedT(t *testing.T) {
	// Theorem 8: with T fixed below the number of distinct cells needing
	// correction, MWEM cannot converge even at huge eps.
	n := 64
	x := vec.New(n)
	for i := range x.Data {
		x.Data[i] = float64(i) // every cell distinct
	}
	w := workload.Identity(n)
	a := &algo.MWEM{T: 5, UpdateSweeps: 2}
	res, err := CheckConsistency(a, x, w, []float64{0.1, 10, 1000}, 2, 0.01, 13, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decaying {
		t.Errorf("MWEM(T=5) residual %v, expected bias plateau", res.ResidualAtMax)
	}
}

func TestMeasureBiasIdentityIsVarianceDominated(t *testing.T) {
	x := vec.New(32)
	for i := range x.Data {
		x.Data[i] = 100
	}
	w := workload.Prefix(32)
	bv, err := MeasureBias(mustAlgo(t, "IDENTITY"), x, w, 0.5, 60, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	if bv.BiasShare() > 0.2 {
		t.Fatalf("IDENTITY bias share %v, want ~0 (unbiased mechanism)", bv.BiasShare())
	}
}

func TestMeasureBiasUniformIsBiasDominated(t *testing.T) {
	// Finding 9: at large scale the error of UNIFORM is dominated by bias.
	n := 32
	x := vec.New(n)
	x.Data[0] = 1_000_000 // all mass in one cell
	w := workload.Prefix(n)
	bv, err := MeasureBias(mustAlgo(t, "UNIFORM"), x, w, 1.0, 40, 19, false)
	if err != nil {
		t.Fatal(err)
	}
	if bv.BiasShare() < 0.9 {
		t.Fatalf("UNIFORM bias share %v, want ~1 on concentrated data", bv.BiasShare())
	}
}

func TestBiasVarianceZeroTotal(t *testing.T) {
	var bv BiasVariance
	if bv.BiasShare() != 0 {
		t.Fatal("zero-total bias share should be 0")
	}
}

func TestTrainerProfileLookup(t *testing.T) {
	p := &Profile{
		Products: []float64{100, 10_000},
		Params:   [][]float64{{2}, {20}},
	}
	if got := p.Lookup(50); got[0] != 2 {
		t.Fatalf("Lookup(50) = %v", got)
	}
	if got := p.Lookup(100); got[0] != 2 {
		t.Fatalf("Lookup(100) = %v", got)
	}
	if got := p.Lookup(1e9); got[0] != 20 {
		t.Fatalf("Lookup(1e9) = %v", got)
	}
	empty := &Profile{}
	if got := empty.Lookup(1); got != nil {
		t.Fatalf("empty profile lookup = %v", got)
	}
}

func TestTrainingShapes(t *testing.T) {
	shapes := TrainingShapes(256)
	if len(shapes) != 2 {
		t.Fatalf("%d training shapes, want 2 (power law + normal)", len(shapes))
	}
	for i, s := range shapes {
		var sum float64
		for _, v := range s.Data {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shape %d sums to %v", i, sum)
		}
	}
}

func TestTrainerRejectsEmptyConfig(t *testing.T) {
	tr := &Trainer{}
	if _, err := tr.Train(context.Background()); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrainMWEMLearnsIncreasingT(t *testing.T) {
	// The trained profile should give small T at weak signal and larger T
	// at strong signal — the mechanism behind Finding 7.
	profile, err := TrainMWEM(context.Background(), 64, []float64{1e2, 1e5}, 1, 23)
	if err != nil {
		t.Fatal(err)
	}
	weak := profile(1e2)
	strong := profile(1e5)
	if weak < 1 || strong < 1 {
		t.Fatalf("degenerate T values: %d, %d", weak, strong)
	}
	if strong < weak {
		t.Errorf("trained T decreases with signal: weak=%d strong=%d", weak, strong)
	}
}

func TestTrainAHPReturnsValidParams(t *testing.T) {
	profile, err := TrainAHP(context.Background(), 64, []float64{1e3}, 1, 29)
	if err != nil {
		t.Fatal(err)
	}
	rho, eta := profile(1e3)
	if rho <= 0 || rho >= 1 || eta <= 0 {
		t.Fatalf("invalid trained params rho=%v eta=%v", rho, eta)
	}
}
