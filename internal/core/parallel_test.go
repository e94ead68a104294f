package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

func parallelTestConfig(t *testing.T) Config {
	t.Helper()
	d, err := dataset.ByName("MEDCOST")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dataset:     d,
		Dims:        []int{256},
		Scale:       10_000,
		Eps:         0.5,
		Workload:    workload.Prefix(256),
		Algorithms:  []algo.Algorithm{mustAlgo(t, "IDENTITY"), mustAlgo(t, "HB"), mustAlgo(t, "DAWA")},
		DataSamples: 3,
		Trials:      4,
		Seed:        20160626,
	}
}

// TestRunParallelMatchesSerial is the determinism guarantee across worker
// counts: a run on the worker pool must be bit-identical to the inline
// single-worker run, because every (sample, trial, algorithm) cell draws
// from its own deriveSeed stream and writes into a position-fixed slot.
func TestRunParallelMatchesSerial(t *testing.T) {
	serial, err := RunParallel(context.Background(), parallelTestConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunParallel(context.Background(), parallelTestConfig(t), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Name != serial[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, par[i].Name, serial[i].Name)
			}
			if len(par[i].Errors) != len(serial[i].Errors) {
				t.Fatalf("workers=%d: %s has %d observations, want %d",
					workers, par[i].Name, len(par[i].Errors), len(serial[i].Errors))
			}
			for j := range serial[i].Errors {
				if par[i].Errors[j] != serial[i].Errors[j] {
					t.Fatalf("workers=%d: %s observation %d = %v, serial %v (must be bit-identical)",
						workers, par[i].Name, j, par[i].Errors[j], serial[i].Errors[j])
				}
			}
		}
	}
}

// failingAlgo errors on every cell after allowing `allow` successes, to
// exercise pool cancellation with work in flight.
type failingAlgo struct {
	allow int32
	calls atomic.Int32
}

func (f *failingAlgo) Name() string        { return "FAIL" }
func (f *failingAlgo) Supports(k int) bool { return true }
func (f *failingAlgo) DataDependent() bool { return false }
func (f *failingAlgo) Run(x *vec.Vector, _ *workload.Workload, _ float64, _ *rand.Rand) ([]float64, error) {
	if f.calls.Add(1) > f.allow {
		return nil, errors.New("synthetic failure")
	}
	return make([]float64, len(x.Data)), nil
}

func (f *failingAlgo) Plan(x *vec.Vector, _ *workload.Workload, _ float64) (algo.Plan, error) {
	return failingPlan{f}, nil
}

// failingPlan fails each Execute past the allowance, exercising in-flight
// error propagation through the plan-based trial loop.
type failingPlan struct{ f *failingAlgo }

func (p failingPlan) Execute(_ *noise.Meter, out []float64) error {
	if p.f.calls.Add(1) > p.f.allow {
		return errors.New("synthetic failure")
	}
	for i := range out {
		out[i] = 0
	}
	return nil
}

// TestRunParallelPropagatesError: a failing algorithm must cancel the pool
// without deadlock and surface its error through RunParallel.
func TestRunParallelPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := parallelTestConfig(t)
		cfg.Algorithms = []algo.Algorithm{mustAlgo(t, "IDENTITY"), &failingAlgo{allow: 2}}
		cfg.DataSamples = 4
		cfg.Trials = 8
		_, err := RunParallel(context.Background(), cfg, workers)
		if err == nil {
			t.Fatalf("workers=%d: expected error from failing algorithm", workers)
		}
	}
}

// TestRunParallelValidation: the worker pool rejects the same bad configs
// as the inline run (TestRunConfigValidation).
func TestRunParallelValidation(t *testing.T) {
	d, _ := dataset.ByName("ADULT")
	if _, err := RunParallel(context.Background(), Config{Dataset: d}, 4); err == nil {
		t.Fatal("expected error for missing workload")
	}
	if _, err := RunParallel(context.Background(), Config{Dataset: d, Workload: workload.Prefix(4)}, 4); err == nil {
		t.Fatal("expected error for missing algorithms")
	}
}

// TestParallelForCancelsAfterFirstError: the pool stops dispatching new
// indices once a call fails, and returns without deadlock.
func TestParallelForCancelsAfterFirstError(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	err := ParallelForCtx(context.Background(), 4, 10_000, func(i int) error {
		started.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n == 10_000 {
		t.Fatal("pool dispatched every index despite an early error")
	}
}

// TestParallelForCoversAllIndices: every index runs exactly once on success.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		counts := make([]atomic.Int32, 137)
		if err := ParallelForCtx(context.Background(), workers, len(counts), func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestDeriveSeedDistinct: the SplitMix64 derivation must give distinct
// streams across a dense coordinate grid, including the reserved generator
// streams and adjacent base seeds (the failure mode of the old additive
// mixing).
func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	record := func(v int64, label string) {
		if prev, dup := seen[v]; dup {
			t.Fatalf("seed collision between %s and %s", prev, label)
		}
		seen[v] = label
	}
	// firstDraw guards the *effective* stream space: newRNG must not reduce
	// the 64-bit seed into a smaller state (as stdlib rand.NewSource does,
	// mod 2^31-1), which would make distinct seeds alias to one stream.
	draws := map[int64]string{}
	firstDraw := func(v int64, label string) {
		d := newRNG(v).Int63()
		if prev, dup := draws[d]; dup {
			t.Fatalf("stream collision between %s and %s (identical first draw)", prev, label)
		}
		draws[d] = label
	}
	for _, base := range []int64{0, 1, 2, 20160626} {
		for s := 0; s < 8; s++ {
			label := fmt.Sprintf("gen(base=%d,s=%d)", base, s)
			record(generatorSeed(base, s), label)
			firstDraw(generatorSeed(base, s), label)
			for tr := 0; tr < 8; tr++ {
				for a := 0; a < 8; a++ {
					label := fmt.Sprintf("run(base=%d,s=%d,t=%d,a=%d)", base, s, tr, a)
					record(deriveSeed(base, s, tr, a), label)
					firstDraw(deriveSeed(base, s, tr, a), label)
				}
			}
		}
	}
}
