package algo

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dpbench/internal/workload"
)

// Legacy-sampler digest goldens: each table pins the exact output bits of
// a family of mechanisms at fixed seeds, so a rewrite of a mechanism's
// per-trial code must reproduce every draw and every floating-point
// reduction.

// outputDigest hashes the exact bit pattern of an output vector, so a single
// ulp of drift anywhere fails the golden.
func outputDigest(out []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

var treeGoldenPath = filepath.Join("testdata", "sampler_legacy_tree_golden.json")

// treeGoldenCases pins the legacy-sampler output of every mechanism that
// runs through internal/tree, in each dimensionality it supports; the
// shallow HybridTree truncates its quadtrees under the kd levels.
var treeGoldenCases = []legacyGoldenCase{
	{"H/100", "H", nil, []int{100}, 13},
	{"HB/100", "HB", nil, []int{100}, 17},
	{"HB/24x40", "HB", nil, []int{24, 40}, 19},
	{"GREEDY-H/100", "GREEDY-H", nil, []int{100}, 23},
	{"GREEDY-H/32x32", "GREEDY-H", nil, []int{32, 32}, 29},
	{"QUADTREE/24x40", "QUADTREE", nil, []int{24, 40}, 31},
	{"HYBRIDTREE/32x32", "HYBRIDTREE", nil, []int{32, 32}, 37},
	{"HYBRIDTREE/24x40", "HYBRIDTREE", nil, []int{24, 40}, 41},
	{"HYBRIDTREE-kd2-h4/40x24", "HYBRIDTREE", &HybridTree{KDLevels: 2, MaxHeight: 4, StructRho: 0.2}, []int{40, 24}, 43},
	{"DAWA/100", "DAWA", nil, []int{100}, 47},
	{"DAWA/32x32", "DAWA", nil, []int{32, 32}, 53},
	{"SF/100", "SF", nil, []int{100}, 59},
}

// legacyGoldenCase is one row of a legacy-sampler digest table. cfg
// overrides the registry default (nil means New(name)).
type legacyGoldenCase struct {
	key  string
	name string
	cfg  Algorithm
	dims []int
	seed int64
}

// TestLegacyTreeMechanismGolden pins the legacy-sampler output of the tree
// mechanisms bit for bit. Regenerate with UPDATE_SAMPLER_GOLDEN=1 only after
// an intentional change to a mechanism's output.
func TestLegacyTreeMechanismGolden(t *testing.T) {
	checkLegacyGolden(t, treeGoldenPath, treeGoldenCases)
}

var partitionGoldenPath = filepath.Join("testdata", "sampler_legacy_partition_golden.json")

// partitionGoldenCases pins the legacy-sampler output of the mechanisms
// that partition a noisy 2D grid per trial: DPCube's kd split (1D intervals,
// a one-row grid, which splits as 2D and so cuts differently from 1D when a
// node's mass sits in its last cell, square grids up to the sweep's 128x128,
// and a wide grid whose splits alternate axes) and AGrid in both its
// public-scale and its Rside layout.
var partitionGoldenCases = []legacyGoldenCase{
	{"DPCUBE/1000", "DPCUBE", nil, []int{1000}, 61},
	{"DPCUBE/64x64", "DPCUBE", nil, []int{64, 64}, 67},
	{"DPCUBE/128x128", "DPCUBE", nil, []int{128, 128}, 71},
	{"DPCUBE/24x40", "DPCUBE", nil, []int{24, 40}, 73},
	{"DPCUBE/1x40", "DPCUBE", nil, []int{1, 40}, 97},
	{"AGRID/64x64", "AGRID", nil, []int{64, 64}, 79},
	{"AGRID/24x40", "AGRID", nil, []int{24, 40}, 83},
	{"AGRID-rside/64x64", "AGRID", &AGrid{C: 10, C2: 5, Rho: 0.5, ScaleRho: 0.05}, []int{64, 64}, 89},
}

// TestLegacyPartitionMechanismGolden pins DPCube and AGrid bit for bit, so
// a rewrite of their per-trial partitioning must reproduce every draw and
// every floating-point reduction. Regenerate as TestLegacyTreeMechanismGolden.
func TestLegacyPartitionMechanismGolden(t *testing.T) {
	checkLegacyGolden(t, partitionGoldenPath, partitionGoldenCases)
}

var selectionGoldenPath = filepath.Join("testdata", "sampler_legacy_selection_golden.json")

// selectionGoldenCases pins the legacy-sampler output of the mechanisms
// that select with the exponential mechanism on pooled per-plan state:
// PHP's bisections (at a small domain and at the sweep's 4096 cells), AHP's
// clustering, and MWEM's query selection with a public and a private scale.
var selectionGoldenCases = []legacyGoldenCase{
	{"PHP/100", "PHP", nil, []int{100}, 101},
	{"PHP/4096", "PHP", nil, []int{4096}, 103},
	{"AHP/100", "AHP", nil, []int{100}, 107},
	{"MWEM/100", "MWEM", nil, []int{100}, 109},
	{"MWEM*/100", "MWEM*", nil, []int{100}, 127},
}

// TestLegacySelectionMechanismGolden pins PHP, AHP and MWEM bit for bit.
// MWEM's reference-implementation goldens compare within a tolerance, so
// this table is what holds its exact stream. Regenerate as
// TestLegacyTreeMechanismGolden.
func TestLegacySelectionMechanismGolden(t *testing.T) {
	checkLegacyGolden(t, selectionGoldenPath, selectionGoldenCases)
}

// checkLegacyGolden runs every case at eps 0.5 on goldenVec data (the
// Prefix workload in 1D) and compares the output digests with the golden
// file at path, or rewrites the file under UPDATE_SAMPLER_GOLDEN.
func checkLegacyGolden(t *testing.T, path string, cases []legacyGoldenCase) {
	t.Helper()
	got := map[string]string{}
	for _, c := range cases {
		a := c.cfg
		if a == nil {
			var err error
			if a, err = New(c.name); err != nil {
				t.Fatal(err)
			}
		}
		x := goldenVec(t, rand.New(rand.NewSource(c.seed)), c.dims...)
		var w *workload.Workload
		if len(c.dims) == 1 {
			w = workload.Prefix(c.dims[0])
		}
		out, err := a.Run(x, w, 0.5, rand.New(rand.NewSource(c.seed*1009+17)))
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		got[c.key] = outputDigest(out)
	}
	if os.Getenv("UPDATE_SAMPLER_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading legacy golden %s: %v", path, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d digests, table has %d rows", len(want), len(cases))
	}
	for _, c := range cases {
		if got[c.key] != want[c.key] {
			t.Errorf("%s legacy digest %s, golden %s — the mechanism's output changed", c.key, got[c.key], want[c.key])
		}
	}
}
