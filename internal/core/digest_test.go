package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// resultsDigest hashes every result's name and the exact bit pattern of its
// scaled errors with FNV-64a, so one ulp of drift in any cell, or a cell
// written into another's slot, changes the digest.
func resultsDigest(results []AlgResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range results {
		h.Write([]byte(r.Name))
		for _, e := range r.Errors {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunnerDigest pins the runner's output bits absolutely, not relative to
// another runner: a 1D and a 2D setting, each run at 1 and 3 workers,
// audited and not, must all reproduce the one recorded digest. Every cell's
// value depends only on its deriveSeed stream and lands in its
// (sample, trial) slot, so neither the schedule nor the audit may move it.
func TestRunnerDigest(t *testing.T) {
	medcost, err := dataset.ByName("MEDCOST")
	if err != nil {
		t.Fatal(err)
	}
	adult2D, err := dataset.ByName("ADULT-2D")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		digest string
		cfg    func() Config
	}{
		{"1D", "ac0996020d675b92", func() Config {
			return Config{
				Dataset:     medcost,
				Dims:        []int{256},
				Scale:       100_000,
				Eps:         0.1,
				Workload:    workload.Prefix(256),
				Algorithms:  []algo.Algorithm{mustAlgo(t, "HB"), mustAlgo(t, "DAWA"), mustAlgo(t, "MWEM"), mustAlgo(t, "EFPA"), mustAlgo(t, "UNIFORM")},
				DataSamples: 3,
				Trials:      2,
				Seed:        20160626,
			}
		}},
		{"2D", "0e8617aa3c259583", func() Config {
			return Config{
				Dataset:     adult2D,
				Dims:        []int{32, 32},
				Scale:       100_000,
				Eps:         0.1,
				Workload:    workload.RandomRange2D(32, 32, 100, noise.NewRand(7)),
				Algorithms:  []algo.Algorithm{mustAlgo(t, "IDENTITY"), mustAlgo(t, "AGRID"), mustAlgo(t, "DPCUBE"), mustAlgo(t, "QUADTREE")},
				DataSamples: 2,
				Trials:      2,
				Seed:        20160626,
			}
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			for _, audit := range []bool{false, true} {
				cfg := c.cfg()
				cfg.Audit = audit
				results, err := RunParallel(context.Background(), cfg, workers)
				if err != nil {
					t.Fatalf("%s workers=%d audit=%v: %v", c.name, workers, audit, err)
				}
				if got := resultsDigest(results); got != c.digest {
					t.Errorf("%s workers=%d audit=%v: digest %s, want %s", c.name, workers, audit, got, c.digest)
				}
			}
		}
	}
}
