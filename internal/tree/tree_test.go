package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpbench/internal/noise"
)

// leafCells returns the cells each leaf of f covers, in node order.
func leafCells(f *Flat) [][]int32 {
	var out [][]int32
	for i := 0; i < len(f.depth); i++ {
		if f.isLeaf(i) {
			out = append(out, f.cells[f.celOff[i]:f.celOff[i+1]])
		}
	}
	return out
}

// assertPartition checks that the leaves of f cover each of its n cells
// exactly once.
func assertPartition(t *testing.T, f *Flat) {
	t.Helper()
	seen := make([]bool, f.n)
	for _, cells := range leafCells(f) {
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("cell %d covered twice", c)
			}
			seen[c] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d not covered", i)
		}
	}
}

// measure runs ComputeSums and MeasureInto for one trial on a fresh scratch.
func measure(f *Flat, rng *rand.Rand, data, budget []float64) *Scratch {
	sc := NewScratch()
	f.ComputeSums(data, sc)
	f.MeasureInto(noise.NewMeter(1, rng), sc, budget)
	return sc
}

// infer returns the cell estimates of a measured scratch.
func infer(f *Flat, sc *Scratch) []float64 {
	out := make([]float64, f.n)
	f.InferInto(sc, out)
	return out
}

func TestBuildIntervalStructure(t *testing.T) {
	shared, err := SharedInterval(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt Flat
	if err := rebuilt.RebuildInterval(8, 2); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Flat{shared, &rebuilt} {
		if f.n != 8 {
			t.Fatalf("N = %d, want 8", f.n)
		}
		if h := f.Height(); h != 4 {
			t.Fatalf("height = %d, want 4", h)
		}
		if n := len(f.depth); n != 15 {
			t.Fatalf("nodes = %d, want 15", n)
		}
	}
}

func TestBuildIntervalNonPow2(t *testing.T) {
	f, err := SharedInterval(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 10 {
		t.Fatalf("N = %d, want 10", f.n)
	}
	// Leaves must partition [0,10) exactly.
	assertPartition(t, f)
}

func TestBuildIntervalErrors(t *testing.T) {
	if _, err := SharedInterval(0, 2); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := SharedInterval(4, 1); err == nil {
		t.Fatal("expected error for b=1")
	}
	var f Flat
	if err := f.RebuildInterval(0, 2); err == nil {
		t.Fatal("expected rebuild error for n=0")
	}
	if err := f.RebuildInterval(4, 1); err == nil {
		t.Fatal("expected rebuild error for b=1")
	}
}

func TestBuildQuadCoversGrid(t *testing.T) {
	f, err := SharedQuad(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 64 {
		t.Fatalf("N = %d, want 64", f.n)
	}
	assertPartition(t, f)
}

func TestBuildQuadHeightCap(t *testing.T) {
	f, err := SharedQuad(16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h := f.Height(); h > 3 {
		t.Fatalf("height = %d, want <= 3", h)
	}
	// Truncated leaves cover 4x4 blocks.
	for _, cells := range leafCells(f) {
		if len(cells) != 16 {
			t.Fatalf("leaf covers %d cells, want 16", len(cells))
		}
	}
}

func TestBuildQuadErrors(t *testing.T) {
	if _, err := SharedQuad(0, 4, 3); err == nil {
		t.Fatal("expected error for nx=0")
	}
	if _, err := SharedQuad(4, 4, 0); err == nil {
		t.Fatal("expected error for height=0")
	}
	if _, err := SharedGrid(4, 0, 2); err == nil {
		t.Fatal("expected grid error for ny=0")
	}
	if _, err := SharedGrid(4, 4, 1); err == nil {
		t.Fatal("expected grid error for b=1")
	}
}

func TestBuildGridBranching(t *testing.T) {
	f, err := SharedGrid(9, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 81 {
		t.Fatalf("N = %d, want 81", f.n)
	}
	if got := f.kidOff[1] - f.kidOff[0]; got != 9 {
		t.Fatalf("root children = %d, want 9", got)
	}
	assertPartition(t, f)
}

// TestRebuildKDQuadRegions lays two 4x4 quadtree regions side by side under
// one kd cut, and checks the regions' sizes and their height-capped leaves.
func TestRebuildKDQuadRegions(t *testing.T) {
	var f Flat
	if err := f.RebuildKD(8, 4, 3, []int{4, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if f.n != 32 || f.Height() != 3 {
		t.Fatalf("N %d height %d, want 32 and 3", f.n, f.Height())
	}
	sc := NewScratch()
	data := make([]float64, 32)
	for i := range data {
		data[i] = 1
	}
	f.ComputeSums(data, sc)
	kids := f.kids[f.kidOff[0]:f.kidOff[1]]
	if len(kids) != 2 || sc.sums[kids[0]] != 16 || sc.sums[kids[1]] != 16 {
		t.Fatalf("root children %v with sums %v, want two 16-cell regions", kids, sc.sums)
	}
	// Height 2 under each region: the quadrants are 2x2 leaves.
	for _, cells := range leafCells(&f) {
		if len(cells) != 4 {
			t.Fatalf("leaf covers %d cells, want 4", len(cells))
		}
	}
	assertPartition(t, &f)
}

func TestTrueCount(t *testing.T) {
	f, _ := SharedInterval(4, 2)
	sc := f.Acquire()
	defer f.Release(sc)
	f.ComputeSums([]float64{1, 2, 3, 4}, sc)
	if got := sc.sums[0]; got != 10 {
		t.Fatalf("root sum = %v, want 10", got)
	}
	if got := sc.sums[f.kids[f.kidOff[0]]]; got != 3 {
		t.Fatalf("left child sum = %v, want 3", got)
	}
}

func TestMeasureSetsVariances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, _ := SharedInterval(8, 2)
	eps := tree8Budget(1.0)
	sc := measure(f, rng, make([]float64, 8), eps)
	for d := range eps {
		want := 2 / (eps[d] * eps[d])
		if math.Abs(sc.vars[d]-want) > 1e-12 {
			t.Fatalf("depth %d var = %v, want %v", d, sc.vars[d], want)
		}
	}
}

func tree8Budget(eps float64) []float64 { return UniformLevelBudget(eps, 4) }

func TestMeasureUnmeasuredLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, _ := SharedInterval(4, 2)
	data := []float64{5, 5, 5, 5}
	// Only leaves measured.
	sc := measure(f, rng, data, []float64{0, 0, 1})
	if !math.IsInf(sc.vars[0], 1) || sc.y[0] != 0 {
		t.Fatalf("unmeasured root should have infinite variance and no measurement, got var %v y %v", sc.vars[0], sc.y[0])
	}
	var total float64
	for _, v := range infer(f, sc) {
		total += v
	}
	if math.Abs(total-20) > 20 {
		t.Fatalf("estimate total %v wildly off 20", total)
	}
}

func TestInferExactWhenNoiseFree(t *testing.T) {
	// With essentially infinite budget, inference must reproduce the data.
	rng := rand.New(rand.NewSource(3))
	f, _ := SharedInterval(16, 2)
	data := make([]float64, 16)
	for i := range data {
		data[i] = float64(i * i)
	}
	est := infer(f, measure(f, rng, data, UniformLevelBudget(1e9, f.Height())))
	for i := range data {
		if math.Abs(est[i]-data[i]) > 1e-3 {
			t.Fatalf("cell %d: est %v, want %v", i, est[i], data[i])
		}
	}
}

func TestInferConsistency(t *testing.T) {
	// After inference every node's final estimate equals the sum of its
	// children's, and the cell estimates are finite.
	rng := rand.New(rand.NewSource(4))
	f, _ := SharedInterval(32, 2)
	data := make([]float64, 32)
	for i := range data {
		data[i] = float64(i % 7)
	}
	sc := measure(f, rng, data, UniformLevelBudget(0.5, f.Height()))
	for _, v := range infer(f, sc) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite estimate")
		}
	}
	for i := 0; i < len(f.depth); i++ {
		if f.isLeaf(i) {
			continue
		}
		var kids float64
		for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
			kids += sc.z[k]
		}
		if math.Abs(kids-sc.z[i]) > 1e-9*math.Max(1, math.Abs(sc.z[i])) {
			t.Fatalf("node %d estimate %v, children sum to %v", i, sc.z[i], kids)
		}
	}
}

func TestInferVarianceReduction(t *testing.T) {
	// The hierarchical estimator should answer large range queries with
	// lower error than the per-leaf (identity) estimator at the same total
	// budget. Compare mean squared error of the total-sum query.
	const (
		n      = 256
		eps    = 0.1
		trials = 300
	)
	data := make([]float64, n)
	for i := range data {
		data[i] = 10
	}
	trueTotal := float64(n * 10)
	var hierSE, flatSE float64
	rng := rand.New(rand.NewSource(5))
	f, _ := SharedInterval(n, 2)
	for trial := 0; trial < trials; trial++ {
		var ht float64
		for _, v := range infer(f, measure(f, rng, data, UniformLevelBudget(eps, f.Height()))) {
			ht += v
		}
		hierSE += (ht - trueTotal) * (ht - trueTotal)

		var ft float64
		for range data {
			ft += 10 + laplaceSample(rng, 1/eps)
		}
		flatSE += (ft - trueTotal) * (ft - trueTotal)
	}
	if hierSE >= flatSE {
		t.Fatalf("hierarchy MSE %v not below identity MSE %v on total query", hierSE/trials, flatSE/trials)
	}
}

func laplaceSample(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

func TestUniformLevelBudgetSums(t *testing.T) {
	b := UniformLevelBudget(1.0, 5)
	var s float64
	for _, v := range b {
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("budget sums to %v, want 1", s)
	}
}

func TestGeometricLevelBudgetSumsAndGrows(t *testing.T) {
	b := GeometricLevelBudget(2.0, 6)
	var s float64
	for i, v := range b {
		s += v
		if i > 0 && v <= b[i-1] {
			t.Fatalf("geometric budget not increasing at level %d", i)
		}
	}
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("budget sums to %v, want 2", s)
	}
}

func TestIntervalLeafCoverageProperty(t *testing.T) {
	var f Flat
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		b := 2 + rng.Intn(6)
		if err := f.RebuildInterval(n, b); err != nil {
			return false
		}
		covered := 0
		for _, cells := range leafCells(&f) {
			if len(cells) != 1 {
				return false // interval trees recurse to single cells
			}
			covered++
		}
		return covered == n && f.n == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInferPreservesTotalProperty(t *testing.T) {
	// The inferred cell totals must equal the root's combined estimate,
	// which with a high-budget root measurement is close to the true total.
	var f Flat
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		if err := f.RebuildInterval(n, 2); err != nil {
			return false
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(rng.Intn(50))
		}
		est := infer(&f, measure(&f, rng, data, UniformLevelBudget(100, f.Height())))
		var total, want float64
		for i := range data {
			total += est[i]
			want += data[i]
		}
		// Generous tolerance: high budget keeps noise tiny.
		return math.Abs(total-want) < 5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
