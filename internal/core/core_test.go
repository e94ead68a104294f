package core

import (
	"context"
	"math"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/workload"
)

func TestScaledError(t *testing.T) {
	if got := ScaledError(100, 1000, 10); got != 0.01 {
		t.Fatalf("ScaledError = %v, want 0.01", got)
	}
	if got := ScaledError(1, 0, 10); !math.IsInf(got, 1) {
		t.Fatalf("zero scale should give +Inf, got %v", got)
	}
}

func TestScaledErrorInterpretation(t *testing.T) {
	// Paper example: absolute error 100 at scale 1000 vs scale 100,000 maps
	// to 0.1 and 0.001 per-query scaled error (one query).
	if got := ScaledError(100, 1000, 1); got != 0.1 {
		t.Fatalf("got %v, want 0.1", got)
	}
	if got := ScaledError(100, 100_000, 1); got != 0.001 {
		t.Fatalf("got %v, want 0.001", got)
	}
}

// TestBenchmark1DAssembly pins the paper's 1D benchmark components as the
// experiment runner assembles them: the 18 Table 2 datasets, the Prefix
// workload at domain n, and every registered 1D mechanism.
func TestBenchmark1DAssembly(t *testing.T) {
	if got := len(dataset.Registry1D()); got != 18 {
		t.Fatalf("1D benchmark has %d datasets, want 18", got)
	}
	for _, d := range dataset.Registry1D() {
		if d.Dim != 1 {
			t.Fatalf("dataset %s in the 1D registry is %dD", d.Name, d.Dim)
		}
	}
	if got := workload.Prefix(256).Size(); got != 256 {
		t.Fatalf("prefix workload size %d", got)
	}
	// 14 one-dimensional algorithms are evaluated (Section 7: "we evaluated
	// 14 algorithms"), i.e. every registered algorithm supporting 1D + the
	// starred variants.
	algos := algo.All(1)
	if len(algos) < 14 {
		t.Fatalf("only %d 1D algorithms", len(algos))
	}
	for _, a := range algos {
		if !a.Supports(1) {
			t.Fatalf("algorithm %s does not support 1D", a.Name())
		}
	}
}

// TestBenchmark2DAssembly is TestBenchmark1DAssembly for the 2D benchmark:
// the 9 two-dimensional datasets and q random rectangles.
func TestBenchmark2DAssembly(t *testing.T) {
	if got := len(dataset.Registry2D()); got != 9 {
		t.Fatalf("2D benchmark has %d datasets, want 9", got)
	}
	for _, d := range dataset.Registry2D() {
		if d.Dim != 2 {
			t.Fatalf("dataset %s in the 2D registry is %dD", d.Name, d.Dim)
		}
	}
	if got := workload.RandomRange2D(32, 32, 100, newRNG(7)).Size(); got != 100 {
		t.Fatalf("workload size %d", got)
	}
	for _, a := range algo.All(2) {
		if !a.Supports(2) {
			t.Fatalf("algorithm %s does not support 2D", a.Name())
		}
	}
}

// TestBenchmarkValidateCatchesMismatches: a setting whose components
// disagree on the domain fails the run with an error instead of producing
// numbers — a 2D dataset on a 1D domain, a workload over another domain,
// and a mechanism that does not support the dimensionality.
func TestBenchmarkValidateCatchesMismatches(t *testing.T) {
	d1, _ := dataset.ByName("ADULT")
	d2, _ := dataset.ByName("ADULT-2D")
	id := []algo.Algorithm{mustAlgo(t, "IDENTITY")}
	cases := map[string]Config{
		"2D dataset on a 1D domain":    {Dataset: d2, Dims: []int{64}, Scale: 1000, Eps: 0.1, Workload: workload.Prefix(64), Algorithms: id},
		"workload over another domain": {Dataset: d1, Dims: []int{64}, Scale: 1000, Eps: 0.1, Workload: workload.Prefix(32), Algorithms: id},
		"2D-only mechanism on 1D":      {Dataset: d1, Dims: []int{64}, Scale: 1000, Eps: 0.1, Workload: workload.Prefix(64), Algorithms: []algo.Algorithm{mustAlgo(t, "QUADTREE")}},
	}
	for name, cfg := range cases {
		if _, err := RunParallel(context.Background(), cfg, 1); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestRepairSideInfo(t *testing.T) {
	m, _ := algo.New("MWEM")
	u, _ := algo.New("UGRID")
	id, _ := algo.New("IDENTITY")
	RepairSideInfo([]algo.Algorithm{m, u, id}, 0.05)
	if got := m.(*algo.MWEM).ScaleRho; got != 0.05 {
		t.Fatalf("MWEM ScaleRho = %v", got)
	}
	if got := u.(*algo.UGrid).ScaleRho; got != 0.05 {
		t.Fatalf("UGrid ScaleRho = %v", got)
	}
}

func mustAlgo(t *testing.T, name string) algo.Algorithm {
	t.Helper()
	a, err := algo.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunProducesAllObservations(t *testing.T) {
	d, _ := dataset.ByName("MEDCOST")
	cfg := Config{
		Dataset:     d,
		Dims:        []int{256},
		Scale:       10_000,
		Eps:         0.5,
		Workload:    workload.Prefix(256),
		Algorithms:  []algo.Algorithm{mustAlgo(t, "IDENTITY"), mustAlgo(t, "UNIFORM"), mustAlgo(t, "HB")},
		DataSamples: 2,
		Trials:      3,
		Seed:        1,
	}
	results, err := RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.Errors) != 6 {
			t.Fatalf("%s: %d observations, want 6", r.Name, len(r.Errors))
		}
		for _, e := range r.Errors {
			if e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("%s: bad error %v", r.Name, e)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	d, _ := dataset.ByName("TRACE")
	mk := func() Config {
		return Config{
			Dataset:    d,
			Dims:       []int{256},
			Scale:      5000,
			Eps:        0.1,
			Workload:   workload.Prefix(256),
			Algorithms: []algo.Algorithm{mustAlgo(t, "IDENTITY")},
			Seed:       99,
		}
	}
	r1, err := RunParallel(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1[0].Errors {
		if r1[0].Errors[i] != r2[0].Errors[i] {
			t.Fatal("runs with the same seed differ")
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	d, _ := dataset.ByName("ADULT")
	if _, err := RunParallel(context.Background(), Config{Dataset: d}, 1); err == nil {
		t.Fatal("expected error for missing workload")
	}
	if _, err := RunParallel(context.Background(), Config{Dataset: d, Workload: workload.Prefix(4)}, 1); err == nil {
		t.Fatal("expected error for missing algorithms")
	}
	if _, err := RunParallel(context.Background(), Config{Dataset: d, Workload: workload.Prefix(4), Algorithms: []algo.Algorithm{mustAlgo(t, "IDENTITY")}}, 1); err == nil {
		t.Fatal("expected error for zero scale")
	}
}

func TestCompetitiveSetIncludesBestAndTies(t *testing.T) {
	results := []AlgResult{
		{Name: "A", Errors: []float64{1.0, 1.1, 0.9, 1.05, 0.95}},
		{Name: "B", Errors: []float64{1.0, 1.05, 0.95, 1.02, 0.98}}, // tie with A
		{Name: "C", Errors: []float64{9.0, 9.1, 8.9, 9.05, 8.95}},   // clearly worse
	}
	comp := CompetitiveSet(results, 0.05)
	if !contains(comp, "A") || !contains(comp, "B") {
		t.Fatalf("competitive set %v should contain A and B", comp)
	}
	if contains(comp, "C") {
		t.Fatalf("competitive set %v should not contain C", comp)
	}
}

func TestCompetitiveSetEmpty(t *testing.T) {
	if got := CompetitiveSet(nil, 0.05); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
}

func TestBestByMeanAndP95CanDiffer(t *testing.T) {
	// A has the lower mean but a heavy tail; B is steadier (Finding 8).
	results := []AlgResult{
		{Name: "volatile", Errors: []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 5.0}},
		{Name: "steady", Errors: []float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7}},
	}
	if got := BestByMean(results); got != "volatile" {
		t.Fatalf("BestByMean = %s", got)
	}
	if got := BestByP95(results); got != "steady" {
		t.Fatalf("BestByP95 = %s", got)
	}
}

func TestRegretTable(t *testing.T) {
	names := []string{"A", "B"}
	settings := [][]float64{
		{1, 2}, // oracle 1
		{4, 2}, // oracle 2
	}
	reg := RegretTable(names, settings)
	// A: ratios {1, 2} -> sqrt(2); B: ratios {2, 1} -> sqrt(2).
	if math.Abs(reg["A"]-math.Sqrt2) > 1e-12 || math.Abs(reg["B"]-math.Sqrt2) > 1e-12 {
		t.Fatalf("regret = %v", reg)
	}
}

func TestRegretOracleHasRegretOne(t *testing.T) {
	names := []string{"oracle-like", "other"}
	settings := [][]float64{{1, 5}, {2, 7}, {3, 11}}
	reg := RegretTable(names, settings)
	if math.Abs(reg["oracle-like"]-1) > 1e-12 {
		t.Fatalf("oracle regret = %v, want 1", reg["oracle-like"])
	}
	if reg["other"] <= 1 {
		t.Fatalf("dominated algorithm regret = %v, want > 1", reg["other"])
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
