package dpbench

import (
	"context"
	"math"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// End-to-end integration tests: the full DPBench pipeline — registry ->
// generator G -> mechanisms -> measurement standards -> interpretation
// standards — on small but real settings. These assert the paper's headline
// findings hold on this implementation, not just that the plumbing works.

func TestEndToEnd1DPipeline(t *testing.T) {
	algos := algo.All(1)
	cfg := core.Config{
		Dataset:     dataset.Registry1D()[0],
		Dims:        []int{256},
		Scale:       10_000,
		Eps:         0.1,
		Workload:    workload.Prefix(256),
		Algorithms:  algos,
		DataSamples: 1,
		Trials:      2,
		Seed:        123,
	}
	results, err := core.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(algos) {
		t.Fatalf("%d results for %d algorithms", len(results), len(algos))
	}
	comp := core.CompetitiveSet(results, 0.05)
	if len(comp) == 0 {
		t.Fatal("empty competitive set")
	}
}

func TestEndToEnd2DPipeline(t *testing.T) {
	cfg := core.Config{
		Dataset:     dataset.Registry2D()[0],
		Dims:        []int{16, 16},
		Scale:       10_000,
		Eps:         0.5,
		Workload:    workload.RandomRange2D(16, 16, 50, noise.NewRand(5)),
		Algorithms:  algo.All(2),
		DataSamples: 1,
		Trials:      2,
		Seed:        321,
	}
	results, err := core.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.MeanError() <= 0 || math.IsInf(r.MeanError(), 0) {
			t.Fatalf("%s: bad mean error %v", r.Name, r.MeanError())
		}
		if r.P95Error() < r.MeanError()/10 {
			t.Fatalf("%s: p95 %v implausibly below mean %v", r.Name, r.P95Error(), r.MeanError())
		}
	}
}

func TestHeadlineFindingScaleCrossover(t *testing.T) {
	// Findings 1-2 end to end: on a skewed dataset, the best data-dependent
	// algorithm beats Hb at small scale, and Hb beats (almost) all of them
	// at large scale.
	if testing.Short() {
		t.Skip("integration experiment")
	}
	d, err := dataset.ByName("TRACE")
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Prefix(512)
	run := func(scale int) map[string]float64 {
		algos := []algo.Algorithm{
			mustNew(t, "HB"), mustNew(t, "IDENTITY"),
			mustNew(t, "DAWA"), mustNew(t, "AHP*"), mustNew(t, "MWEM*"),
		}
		cfg := core.Config{
			Dataset: d, Dims: []int{512}, Scale: scale, Eps: 0.1,
			Workload: w, Algorithms: algos,
			DataSamples: 2, Trials: 4, Seed: 777,
		}
		results, err := core.RunParallel(context.Background(), cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, r := range results {
			out[r.Name] = r.MeanError()
		}
		return out
	}

	small := run(1_000)
	bestDD := math.Min(small["DAWA"], math.Min(small["AHP*"], small["MWEM*"]))
	if bestDD >= small["HB"] {
		t.Errorf("scale 1e3: best data-dependent %v not below HB %v (Finding 1)", bestDD, small["HB"])
	}

	large := run(10_000_000)
	if large["HB"] >= large["MWEM*"] {
		t.Errorf("scale 1e7: HB %v not below MWEM* %v (Finding 2)", large["HB"], large["MWEM*"])
	}
	if large["HB"] >= large["IDENTITY"] {
		t.Errorf("scale 1e7: HB %v not below IDENTITY %v", large["HB"], large["IDENTITY"])
	}
}

func TestHeadlineFindingBaselinesMatter(t *testing.T) {
	// Finding 10 end to end: at large scale MWEM falls behind IDENTITY.
	if testing.Short() {
		t.Skip("integration experiment")
	}
	d, err := dataset.ByName("SEARCH")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Dataset: d, Dims: []int{256}, Scale: 10_000_000, Eps: 0.1,
		Workload:    workload.Prefix(256),
		Algorithms:  []algo.Algorithm{mustNew(t, "IDENTITY"), mustNew(t, "MWEM")},
		DataSamples: 2, Trials: 3, Seed: 888,
	}
	results, err := core.RunParallel(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].MeanError() >= results[1].MeanError() {
		t.Errorf("IDENTITY %v not below MWEM %v at scale 1e7", results[0].MeanError(), results[1].MeanError())
	}
}

func mustNew(t *testing.T, name string) algo.Algorithm {
	t.Helper()
	a, err := algo.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
