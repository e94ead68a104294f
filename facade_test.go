package dpbench_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dpbench"
	"dpbench/internal/algo"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/workload"
	"dpbench/release"
)

// TestQuickstartPublicPathBitIdentical pins the acceptance criterion of the
// public API redesign: the examples/quickstart cell (MEDCOST, n=1024,
// scale=50k, eps=0.1) run end-to-end through ONLY public packages produces
// output bit-identical to the same cell run via the internal packages. The
// facade promotes the internal types by alias, so any wrapper layer that
// re-derived seeds, copied data, or reordered noise would break this test.
func TestQuickstartPublicPathBitIdentical(t *testing.T) {
	const (
		domain = 1024
		scale  = 50_000
		eps    = 0.1
	)

	// Public path: dpbench + dpbench/release only.
	pubDS, err := dpbench.OpenDataset("MEDCOST")
	if err != nil {
		t.Fatal(err)
	}
	pubX, err := pubDS.Generate(rand.New(rand.NewSource(1)), scale, domain)
	if err != nil {
		t.Fatal(err)
	}
	pubW := dpbench.Prefix(domain)

	// Internal path: the packages the benchmark itself runs on.
	intDS, err := dataset.ByName("MEDCOST")
	if err != nil {
		t.Fatal(err)
	}
	intX, err := intDS.Generate(rand.New(rand.NewSource(1)), scale, domain)
	if err != nil {
		t.Fatal(err)
	}
	intW := workload.Prefix(domain)

	for i := range intX.Data {
		if pubX.Data[i] != intX.Data[i] {
			t.Fatalf("generated data diverges at cell %d: %v vs %v", i, pubX.Data[i], intX.Data[i])
		}
	}

	for _, name := range []string{"IDENTITY", "HB", "DAWA"} {
		t.Run(name, func(t *testing.T) {
			m, err := release.New(name)
			if err != nil {
				t.Fatal(err)
			}
			pubEst, err := release.Run(m, pubX, pubW, eps, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}

			a, err := algo.New(name)
			if err != nil {
				t.Fatal(err)
			}
			intEst, err := a.Run(intX, intW, eps, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}

			if len(pubEst) != len(intEst) {
				t.Fatalf("estimate lengths differ: %d vs %d", len(pubEst), len(intEst))
			}
			for i := range intEst {
				if pubEst[i] != intEst[i] {
					t.Fatalf("estimates diverge at cell %d: public %v vs internal %v", i, pubEst[i], intEst[i])
				}
			}
		})
	}
}

// TestFacadeRunMatchesCoreRun pins the runner facade: dpbench.Run and
// dpbench.RunParallel over a public Config return results bit-identical to
// internal/core.RunParallel at one worker over the equivalent core.Config,
// audited and not.
func TestFacadeRunMatchesCoreRun(t *testing.T) {
	ctx := context.Background()
	pubDS, err := dpbench.OpenDataset("TRACE")
	if err != nil {
		t.Fatal(err)
	}
	intDS, err := dataset.ByName("TRACE")
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	pubW, intW := dpbench.Prefix(n), workload.Prefix(n)

	for _, audit := range []bool{false, true} {
		pubCfg := dpbench.Config{
			Dataset: pubDS, Dims: []int{n}, Scale: 10_000, Epsilon: 0.1,
			Workload: pubW, Mechanisms: mustPublic(t, "IDENTITY", "DAWA"),
			DataSamples: 2, Trials: 2, Seed: 11, Audit: audit,
		}
		intCfg := core.Config{
			Dataset: intDS, Dims: []int{n}, Scale: 10_000, Eps: 0.1,
			Workload: intW, Algorithms: mustInternal(t, "IDENTITY", "DAWA"),
			DataSamples: 2, Trials: 2, Seed: 11, Audit: audit,
		}
		pub, err := dpbench.Run(ctx, pubCfg)
		if err != nil {
			t.Fatal(err)
		}
		intr, err := core.RunParallel(ctx, intCfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("Run audit=%v", audit), pub, intr)

		par, err := dpbench.RunParallel(ctx, pubCfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("RunParallel audit=%v", audit), par, intr)
	}
}

// TestFacadeRunHonorsCancellation pins the context plumbing: a cancelled
// context stops a facade run with ctx.Err().
func TestFacadeRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := dpbench.OpenDataset("TRACE")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dpbench.Config{
		Dataset: ds, Dims: []int{64}, Scale: 1000, Epsilon: 0.1,
		Workload: dpbench.Prefix(64), Mechanisms: mustPublic(t, "IDENTITY"),
		DataSamples: 1, Trials: 1, Seed: 1,
	}
	if _, err := dpbench.Run(ctx, cfg); err != context.Canceled {
		t.Errorf("Run on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := dpbench.RunParallel(ctx, cfg, 4); err != context.Canceled {
		t.Errorf("RunParallel on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func assertSameResults(t *testing.T, label string, got, want []dpbench.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("%s: result %d name %q vs %q", label, i, got[i].Name, want[i].Name)
		}
		if len(got[i].Errors) != len(want[i].Errors) {
			t.Fatalf("%s: result %d has %d errors vs %d", label, i, len(got[i].Errors), len(want[i].Errors))
		}
		for j := range want[i].Errors {
			if got[i].Errors[j] != want[i].Errors[j] {
				t.Fatalf("%s: result %d error %d: %v vs %v (must be bit-identical)",
					label, i, j, got[i].Errors[j], want[i].Errors[j])
			}
		}
	}
}

func mustPublic(t *testing.T, names ...string) []dpbench.Mechanism {
	t.Helper()
	out := make([]dpbench.Mechanism, 0, len(names))
	for _, n := range names {
		m, err := release.New(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func mustInternal(t *testing.T, names ...string) []algo.Algorithm {
	t.Helper()
	out := make([]algo.Algorithm, 0, len(names))
	for _, n := range names {
		a, err := algo.New(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestNewOptionsConfigureMechanism pins that a construction option reaches
// the concrete mechanism release.New returns: the optioned mechanism
// releases exactly what the same configuration built by hand on the
// internal type releases on one seed, and something different from the
// registry default. (A bare &algo.MWEM{T: 6} would not match: the registry
// default also sets UpdateSweeps.)
func TestNewOptionsConfigureMechanism(t *testing.T) {
	ds, err := dpbench.OpenDataset("MEDCOST")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ds.Generate(rand.New(rand.NewSource(3)), 20_000, 256)
	if err != nil {
		t.Fatal(err)
	}
	w := dpbench.Prefix(256)
	mwemT6 := func() algo.Algorithm {
		a, err := algo.New("MWEM")
		if err != nil {
			t.Fatal(err)
		}
		a.(*algo.MWEM).T = 6
		a.(*algo.MWEM).TFromSignal = nil
		return a
	}
	cases := []struct {
		name string
		opt  release.Option
		ref  func() algo.Algorithm
	}{
		{"MWEM", release.WithMWEMRounds(6), mwemT6},
		{"AHP", release.WithAHPParams(0.3, 0.2), func() algo.Algorithm { return &algo.AHP{Rho: 0.3, Eta: 0.2} }},
	}
	run := func(m release.Mechanism) []float64 {
		out, err := release.Run(m, x, w, 0.5, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			optioned, err := release.New(c.name, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := release.New(c.name)
			if err != nil {
				t.Fatal(err)
			}
			got, want, def := run(optioned), run(c.ref()), run(plain)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cell %d: optioned release %v != hand-configured release %v (bitwise)", i, got[i], want[i])
				}
			}
			if slices.Equal(got, def) {
				t.Fatal("the option did not change the release: it equals the registry default's")
			}
		})
	}
}
