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

	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// The fast sampler draws its own stream, so the legacy goldens cannot pin it.
// This file gives the fast path its own pins: a digest golden over the exact
// outputs of every mechanism the Gumbel-max selection rewired (MWEM, PHP,
// AHP, SF), a run-to-run reproducibility check (the pooled per-plan state
// must not leak across executions), and the legacy-vs-fast audit cross-check
// (budget charges are independent of the sampler, so a fast trial must pass
// the identical sum-to-eps and composition-plan audit a legacy trial does).

var samplerGoldenPath = filepath.Join("testdata", "sampler_fast_golden.json")

// fastGoldenCases are the mechanisms whose fast-sampler output stream is
// pinned. All four route selections through the Gumbel-max top-1 path; PHP
// and SF additionally exercise the batched vector Laplace and geometric fast
// paths.
var fastGoldenCases = []struct {
	name string
	seed int64
	eps  float64
}{
	{"MWEM", 3, 0.5},
	{"PHP", 5, 0.5},
	{"AHP", 7, 0.5},
	{"SF", 11, 0.5},
}

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

func runFastGolden(t *testing.T, name string, seed int64, eps float64) []float64 {
	t.Helper()
	a, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	a = WithSamplerVersion(a, noise.SamplerFast)
	n := 64
	x := goldenVec(t, rand.New(rand.NewSource(seed)), n)
	w := workload.Prefix(n)
	out, err := a.Run(x, w, eps, rand.New(rand.NewSource(seed*1009+17)))
	if err != nil {
		t.Fatalf("%s fast run: %v", name, err)
	}
	return out
}

// TestFastSamplerGolden pins the fast-sampler output stream bit-for-bit.
// Regenerate with UPDATE_SAMPLER_GOLDEN=1 after an intentional change to the
// fast samplers (and say so in the commit: fast-stream changes invalidate
// recorded fast-mode experiment outputs the way legacy-stream changes would
// invalidate the repo's golden CSVs).
func TestFastSamplerGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range fastGoldenCases {
		got[c.name] = outputDigest(runFastGolden(t, c.name, c.seed, c.eps))
	}
	if os.Getenv("UPDATE_SAMPLER_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(samplerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(samplerGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", samplerGoldenPath)
		return
	}
	blob, err := os.ReadFile(samplerGoldenPath)
	if err != nil {
		t.Fatalf("reading fast-sampler golden (regenerate with UPDATE_SAMPLER_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range fastGoldenCases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s fast-sampler digest %s, golden %s — the fast noise stream changed", c.name, got[c.name], want[c.name])
		}
	}
}

var treeGoldenPath = filepath.Join("testdata", "sampler_legacy_tree_golden.json")

// treeGoldenCases pins the legacy-sampler output of every mechanism that
// runs through internal/tree, in each dimensionality it supports. Inside a
// row, cfg overrides the registry default (nil means New(name)); the
// shallow HybridTree truncates its quadtrees under the kd levels.
var treeGoldenCases = []struct {
	key  string
	name string
	cfg  Algorithm
	dims []int
	seed int64
}{
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

// TestLegacyTreeMechanismGolden pins the legacy-sampler output of the tree
// mechanisms bit for bit, the way TestFastSamplerGolden pins the fast
// stream. Regenerate with UPDATE_SAMPLER_GOLDEN=1 only after an intentional
// change to a mechanism's output.
func TestLegacyTreeMechanismGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range treeGoldenCases {
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
		if err := os.WriteFile(treeGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", treeGoldenPath)
		return
	}
	blob, err := os.ReadFile(treeGoldenPath)
	if err != nil {
		t.Fatalf("reading tree-mechanism golden: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(treeGoldenCases) {
		t.Errorf("golden holds %d digests, table has %d rows", len(want), len(treeGoldenCases))
	}
	for _, c := range treeGoldenCases {
		if got[c.key] != want[c.key] {
			t.Errorf("%s legacy digest %s, golden %s — the mechanism's output changed", c.key, got[c.key], want[c.key])
		}
	}
}

// TestFastSamplerReproducible guards the pooled plan state (mwemStatePools,
// phpScratchPools) against cross-execution leakage: two fast executions of
// the same plan on the same seed must be bit-identical even though they reuse
// pooled scratch.
func TestFastSamplerReproducible(t *testing.T) {
	for _, c := range fastGoldenCases {
		a := runFastGolden(t, c.name, c.seed, c.eps)
		b := runFastGolden(t, c.name, c.seed, c.eps)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s cell %d: %v != %v — fast runs must be bit-reproducible for a fixed seed", c.name, i, a[i], b[i])
			}
		}
	}
}

// TestWithSamplerVersionWrapping pins the wrapper contract: the legacy pin is
// free (same instance back), and the fast pin delegates identity methods and
// unwraps to the concrete mechanism.
func TestWithSamplerVersionWrapping(t *testing.T) {
	a, err := New("MWEM")
	if err != nil {
		t.Fatal(err)
	}
	if WithSamplerVersion(a, noise.SamplerLegacy) != a {
		t.Fatal("legacy pin must return the mechanism unchanged")
	}
	f := WithSamplerVersion(a, noise.SamplerFast)
	if f == a {
		t.Fatal("fast pin must wrap")
	}
	if f.Name() != a.Name() || f.Supports(1) != a.Supports(1) || f.DataDependent() != a.DataDependent() {
		t.Fatal("wrapper must delegate identity methods")
	}
	u, ok := f.(interface{ Unwrap() Algorithm })
	if !ok || u.Unwrap() != a {
		t.Fatal("wrapper must unwrap to the concrete mechanism")
	}
}

// TestFastLegacyAuditParity is the audit cross-check: every mechanism with a
// fast selection path must pass the ledger audit (spends sum to exactly eps
// and match the declared composition plan) under BOTH sampler versions. A
// fast path that skipped a charge, or charged under an undeclared label,
// fails here.
func TestFastLegacyAuditParity(t *testing.T) {
	const n, eps = 64, 0.5
	for _, name := range []string{"MWEM", "PHP", "AHP", "SF", "DAWA", "GREEDY-H", "EFPA"} {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		x := goldenVec(t, rand.New(rand.NewSource(42)), n)
		w := workload.Prefix(n)
		p, err := a.Plan(x, w, eps)
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		out := make([]float64, n)
		for _, v := range []noise.SamplerVersion{noise.SamplerLegacy, noise.SamplerFast} {
			if err := ExecuteAuditedV(a, p, eps, rand.New(rand.NewSource(1234)), v, out); err != nil {
				t.Errorf("%s failed the audit under the %s sampler: %v", name, v, err)
			}
		}
	}
}
