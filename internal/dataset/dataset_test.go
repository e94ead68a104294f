package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegistrySizes(t *testing.T) {
	if got := len(Registry1D()); got != 18 {
		t.Fatalf("1D registry has %d datasets, want 18 (Table 2)", got)
	}
	if got := len(Registry2D()); got != 9 {
		t.Fatalf("2D registry has %d datasets, want 9 (Table 2)", got)
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(Registry1D(), Registry2D()...) {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset name %s", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("ADULT")
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim != 1 || d.OriginalScale != 32558 {
		t.Fatalf("ADULT metadata wrong: %+v", d)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestSourceShapeNormalized(t *testing.T) {
	for _, d := range append(Registry1D(), Registry2D()...) {
		p := d.SourceShape()
		var sum float64
		for _, v := range p.Data {
			if v < 0 {
				t.Fatalf("%s: negative shape entry", d.Name)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: shape sums to %v", d.Name, sum)
		}
	}
}

func TestSourceShapeDeterministicAndCached(t *testing.T) {
	d, _ := ByName("TRACE")
	p1 := d.SourceShape()
	p2 := d.SourceShape()
	if p1 != p2 {
		t.Fatal("SourceShape not cached (pointer differs)")
	}
}

func TestZeroFractionMatchesTable2(t *testing.T) {
	for _, d := range append(Registry1D(), Registry2D()...) {
		p := d.SourceShape()
		got := p.ZeroFraction()
		if math.Abs(got-d.ZeroFrac) > 0.01 {
			t.Fatalf("%s: zero fraction %v, want %v (Table 2)", d.Name, got, d.ZeroFrac)
		}
	}
}

func TestShapeCoarsening(t *testing.T) {
	d, _ := ByName("SEARCH")
	for _, n := range []int{256, 512, 1024, 2048, 4096} {
		p, err := d.Shape(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.N() != n {
			t.Fatalf("domain %d: got %d cells", n, p.N())
		}
		var sum float64
		for _, v := range p.Data {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("domain %d: shape sums to %v", n, sum)
		}
	}
}

func TestShape2DCoarsening(t *testing.T) {
	d, _ := ByName("GOWALLA")
	for _, side := range []int{32, 64, 128, 256} {
		p, err := d.Shape(side, side)
		if err != nil {
			t.Fatal(err)
		}
		if p.N() != side*side {
			t.Fatalf("side %d: got %d cells", side, p.N())
		}
	}
}

func TestShapeArityErrors(t *testing.T) {
	d1, _ := ByName("ADULT")
	if _, err := d1.Shape(64, 64); err == nil {
		t.Fatal("expected arity error for 2D shape of 1D dataset")
	}
	d2, _ := ByName("STROKE")
	if _, err := d2.Shape(64); err == nil {
		t.Fatal("expected arity error for 1D shape of 2D dataset")
	}
}

func TestGenerateExactScale(t *testing.T) {
	d, _ := ByName("MEDCOST")
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []int{1000, 10_000, 100_000} {
		x, err := d.Generate(rng, scale, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if got := x.Scale(); got != float64(scale) {
			t.Fatalf("scale %d: generated %v tuples", scale, got)
		}
	}
}

func TestGenerateIntegralCounts(t *testing.T) {
	d, _ := ByName("PATENT")
	rng := rand.New(rand.NewSource(2))
	x, err := d.Generate(rng, 5000, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x.Data {
		if v != math.Trunc(v) || v < 0 {
			t.Fatalf("cell %d = %v, want non-negative integer", i, v)
		}
	}
}

func TestGenerateApproximatesShape(t *testing.T) {
	// At large scale, the sampled empirical shape converges to the source
	// shape (the paper: "approximately the same as the original").
	d, _ := ByName("BIDS-ALL")
	rng := rand.New(rand.NewSource(3))
	const n, scale = 256, 2_000_000
	p, _ := d.Shape(n)
	x, err := d.Generate(rng, scale, n)
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := range p.Data {
		l1 += math.Abs(x.Data[i]/scale - p.Data[i])
	}
	if l1 > 0.05 {
		t.Fatalf("L1 distance between sampled and source shape = %v", l1)
	}
}

func TestGenerate2D(t *testing.T) {
	d, _ := ByName("SF-CABS-S")
	rng := rand.New(rand.NewSource(4))
	x, err := d.Generate(rng, 10_000, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if x.Scale() != 10_000 {
		t.Fatalf("scale = %v", x.Scale())
	}
	if x.K() != 2 || x.Dims[0] != 64 {
		t.Fatalf("dims = %v", x.Dims)
	}
}

func TestGenerateScalePropertyAcrossDatasets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := Registry1D()
		d := reg[rng.Intn(len(reg))]
		scale := 1 + rng.Intn(50_000)
		x, err := d.Generate(rng, scale, 256)
		if err != nil {
			return false
		}
		return x.Scale() == float64(scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGenerateZeroCellsNeverReceiveMass(t *testing.T) {
	d, _ := ByName("ADULT") // 97.8% zeros
	p := d.SourceShape()
	rng := rand.New(rand.NewSource(5))
	x, err := d.Generate(rng, 100_000, MaxDomain1D)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data {
		if p.Data[i] == 0 && x.Data[i] != 0 {
			t.Fatalf("cell %d has zero shape but %v sampled mass", i, x.Data[i])
		}
	}
}

// Section 6.1 draws every dataset at six scales, 1e3 to 1e8, on 1D domains of
// up to 4096 bins and 2D grids of up to 256x256. The generator must hold both
// maxima and hit every scale exactly on them; the experiments' own grids are
// checked against the maxima in experiments.TestOptionsGrids.
func TestScalesAndDomainsMatchPaper(t *testing.T) {
	if MaxDomain1D != 4096 || MaxDomain2D != 256 {
		t.Fatalf("maximum domains %d and %dx%d, want Section 6.1's 4096 and 256x256",
			MaxDomain1D, MaxDomain2D, MaxDomain2D)
	}
	d1, _ := ByName("ADULT")
	d2, _ := ByName("GOWALLA")
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []int{1e3, 1e4, 1e5, 1e6, 1e7, 1e8} {
		x1, err := d1.Generate(rng, scale, MaxDomain1D)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := d2.Generate(rng, scale, MaxDomain2D, MaxDomain2D)
		if err != nil {
			t.Fatal(err)
		}
		if x1.Scale() != float64(scale) || x2.Scale() != float64(scale) {
			t.Fatalf("scale %d: generated %v tuples in 1D and %v in 2D", scale, x1.Scale(), x2.Scale())
		}
	}
}

func TestDenseDatasetsHaveNoZeros(t *testing.T) {
	for _, name := range []string{"BIDS-FJ", "BIDS-FM", "BIDS-ALL", "LC-DTIR-F1", "LC-DTIR-ALL"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if zf := d.SourceShape().ZeroFraction(); zf != 0 {
			t.Fatalf("%s: zero fraction %v, want 0", name, zf)
		}
	}
}
