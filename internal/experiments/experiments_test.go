package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dpbench/internal/dataset"
)

// tinyOptions shrinks everything to smoke-test size: these tests validate
// plumbing and output format end-to-end, not statistical conclusions (the
// benchmark-grade runs live in bench_test.go and cmd/dpbench).
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Out: buf, Quick: true, Seed: 7}
}

func TestOptionsGrids(t *testing.T) {
	quick := Options{Quick: true}
	full := Options{}
	if quick.domain1D() >= full.domain1D() {
		t.Fatal("quick 1D domain should be smaller")
	}
	if quick.samples() >= full.samples() || quick.trials() >= full.trials() {
		t.Fatal("quick mode should use fewer samples/trials")
	}
	if full.domain2D() != 128 || full.queries2D() != 2000 {
		t.Fatalf("full 2D grid %dx%d/%d queries does not match Section 6",
			full.domain2D(), full.domain2D(), full.queries2D())
	}
	if len(quick.datasets1D()) == 0 || len(quick.datasets2D()) == 0 {
		t.Fatal("quick dataset rosters empty")
	}
	if len(full.datasets1D()) != 18 || len(full.datasets2D()) != 9 {
		t.Fatal("full mode must use every Table 2 dataset")
	}
	// Section 6.1: six scales from 1e3 to 1e8, split between the 1D and 2D
	// figures; 1D domains up to 4096 bins and 2D grids up to 256x256.
	scales := append(full.scales1D(), full.scales2D()...)
	slices.Sort(scales)
	if want := []int{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}; !slices.Equal(scales, want) {
		t.Fatalf("full scales %v, want Section 6.1's %v", scales, want)
	}
	if full.domain1D() != dataset.MaxDomain1D || dataset.MaxDomain1D != 4096 {
		t.Fatalf("full 1D domain %d and generator maximum %d, want 4096", full.domain1D(), dataset.MaxDomain1D)
	}
	if dataset.MaxDomain2D != 256 || dataset.MaxDomain2D%full.domain2D() != 0 {
		t.Fatalf("generator's 2D maximum %d, want 256 and a multiple of the full grid's side %d",
			dataset.MaxDomain2D, full.domain2D())
	}
}

func TestRostersMatchFigure1(t *testing.T) {
	a1 := algorithms1D()
	if len(a1) != 11 {
		t.Fatalf("Figure 1a roster has %d algorithms, want 11", len(a1))
	}
	a2 := algorithms2D()
	if len(a2) != 11 {
		t.Fatalf("Figure 1b roster has %d algorithms, want 11", len(a2))
	}
	for _, a := range a1 {
		if !a.Supports(1) {
			t.Fatalf("%s in the 1D roster does not support 1D", a.Name())
		}
	}
	for _, a := range a2 {
		if !a.Supports(2) {
			t.Fatalf("%s in the 2D roster does not support 2D", a.Name())
		}
	}
}

func TestFig1aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	res, err := Fig1a(tinyOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1a") {
		t.Fatalf("missing title in output:\n%s", out)
	}
	for _, name := range []string{"IDENTITY", "HB", "DAWA", "UNIFORM"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s row", name)
		}
	}
	// Every (algorithm, dataset, scale) cell must be present.
	want := 11 * len(tinyOptions(&buf).datasets1D()) * 3
	if len(res.cells) != want {
		t.Fatalf("%d cells, want %d", len(res.cells), want)
	}
	for _, c := range res.cells {
		if c.Mean <= 0 || c.P95 < c.Mean*0 {
			t.Fatalf("bad cell %+v", c)
		}
	}
}

func TestFinding6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	ratios, err := Finding6(tinyOptions(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWEM", "AHP", "DAWA"} {
		r, ok := ratios[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if r < 1 {
			t.Fatalf("%s worst/best ratio %v < 1", name, r)
		}
	}
}

func TestExchangeabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	if err := Exchangeability(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IDENTITY") {
		t.Fatal("missing output rows")
	}
}

func TestConsistencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	if err := Consistency(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// UNIFORM must be flagged as carrying a bias floor.
	lines := strings.Split(out, "\n")
	foundUniform := false
	for _, l := range lines {
		if strings.Contains(l, "UNIFORM") {
			foundUniform = true
			if !strings.Contains(l, "BIAS FLOOR") {
				t.Fatalf("UNIFORM not flagged inconsistent: %q", l)
			}
		}
		if strings.Contains(l, "IDENTITY") && strings.Contains(l, "BIAS FLOOR") {
			t.Fatalf("IDENTITY flagged inconsistent: %q", l)
		}
	}
	if !foundUniform {
		t.Fatal("UNIFORM row missing")
	}
}

func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	counts, err := Table3(tinyOptions(&buf), false)
	if err != nil {
		t.Fatal(err)
	}
	opt := tinyOptions(&buf)
	nDatasets := len(opt.datasets1D())
	for scale, perAlg := range counts {
		total := 0
		for _, c := range perAlg {
			if c < 0 || c > nDatasets {
				t.Fatalf("scale %d: count %d out of range", scale, c)
			}
			total += c
		}
		if total < nDatasets {
			t.Fatalf("scale %d: only %d competitive entries over %d datasets (each dataset has >= 1)", scale, total, nDatasets)
		}
	}
}

func TestRegretSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var buf bytes.Buffer
	reg, err := Regret(tinyOptions(&buf), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 11 {
		t.Fatalf("regret for %d algorithms, want 11", len(reg))
	}
	for name, r := range reg {
		if r < 1-1e-9 {
			t.Fatalf("%s regret %v below 1 (impossible)", name, r)
		}
	}
}

// TestFinding8PrintsInScaleDatasetOrder: the flip lines come out by scale,
// in the grid's order, then by dataset name — not in the map order of the
// sweep's results, which changes from run to run. A 32-bin domain keeps the
// sweep at a few milliseconds and flips 9 settings at this seed, so three
// runs in map order would almost never all come out sorted.
func TestFinding8PrintsInScaleDatasetOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	type key struct {
		scale   int
		dataset string
	}
	var first string
	for run := 0; run < 3; run++ {
		var buf bytes.Buffer
		o := Options{Out: &buf, Quick: true, Seed: 1, Domain1D: 32}
		flips, err := Finding8(o)
		if err != nil {
			t.Fatal(err)
		}
		var keys []key
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || f[0] != "scale" {
				continue
			}
			scale, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			keys = append(keys, key{int(scale), f[2]})
		}
		if len(keys) != flips || flips < 2 {
			t.Fatalf("%d flip lines for %d flips; the order check needs at least 2:\n%s", len(keys), flips, buf.String())
		}
		rank := map[int]int{}
		for i, s := range o.scales1D() {
			rank[s] = i
		}
		for i := 1; i < len(keys); i++ {
			a, b := keys[i-1], keys[i]
			if rank[a.scale] > rank[b.scale] || (a.scale == b.scale && a.dataset >= b.dataset) {
				t.Fatalf("run %d: flip lines out of (scale, dataset) order: %v before %v\n%s", run, a, b, buf.String())
			}
		}
		if run == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", run, buf.String(), first)
		}
	}
}
