package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dpbench/internal/vec"
)

func TestPrefixStructure(t *testing.T) {
	w := Prefix(4)
	if w.Size() != 4 {
		t.Fatalf("size = %d, want 4", w.Size())
	}
	for i := 0; i < w.Size(); i++ {
		lo, hi := w.Range(i)
		if lo != 0 || hi != i {
			t.Fatalf("query %d = [%d,%d], want [0,%d]", i, lo, hi, i)
		}
	}
}

func TestPrefixEvaluate(t *testing.T) {
	w := Prefix(4)
	v, _ := vec.FromData([]float64{1, 2, 3, 4}, 4)
	y, err := w.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 6, 10}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestIdentityWorkload(t *testing.T) {
	w := Identity(3)
	v, _ := vec.FromData([]float64{7, 8, 9}, 3)
	y, _ := w.Evaluate(v)
	for i, want := range []float64{7, 8, 9} {
		if y[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestAllRangeCount(t *testing.T) {
	w := AllRange(5)
	if w.Size() != 15 {
		t.Fatalf("size = %d, want 15", w.Size())
	}
}

func TestRandomRangeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := RandomRange(100, 50, rng)
	if w.Size() != 50 {
		t.Fatalf("size = %d", w.Size())
	}
	for k := 0; k < w.Size(); k++ {
		lo, hi := w.Range(k)
		if lo > hi || lo < 0 || hi >= 100 {
			t.Fatalf("invalid query %d: [%d,%d]", k, lo, hi)
		}
	}
}

func TestRandomRange2DValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := RandomRange2D(16, 8, 40, rng)
	if w.Size() != 40 {
		t.Fatalf("size = %d", w.Size())
	}
	for k := 0; k < w.Size(); k++ {
		y0, x0, y1, x1 := w.Rect(k)
		if y0 > y1 || y1 >= 8 {
			t.Fatalf("invalid y range %d: [%d,%d]", k, y0, y1)
		}
		if x0 > x1 || x1 >= 16 {
			t.Fatalf("invalid x range %d: [%d,%d]", k, x0, x1)
		}
	}
}

func TestEvaluate2DAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nx, ny = 7, 5
	v := vec.New(ny, nx)
	for i := range v.Data {
		v.Data[i] = float64(rng.Intn(10))
	}
	w := RandomRange2D(nx, ny, 30, rng)
	y, err := w.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < w.Size(); k++ {
		y0, x0, y1, x1 := w.Rect(k)
		var want float64
		for yy := y0; yy <= y1; yy++ {
			for xx := x0; xx <= x1; xx++ {
				want += v.Data[yy*nx+xx]
			}
		}
		if math.Abs(y[k]-want) > 1e-9 {
			t.Fatalf("query %d: got %v, want %v", k, y[k], want)
		}
	}
}

func TestEvaluate1DAgainstBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		v := vec.New(n)
		for i := range v.Data {
			v.Data[i] = float64(rng.Intn(20))
		}
		w := RandomRange(n, 20, rng)
		y, err := w.Evaluate(v)
		if err != nil {
			return false
		}
		for k := 0; k < w.Size(); k++ {
			lo, hi := w.Range(k)
			var want float64
			for i := lo; i <= hi; i++ {
				want += v.Data[i]
			}
			if math.Abs(y[k]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateDimensionMismatch(t *testing.T) {
	w := Prefix(4)
	v := vec.New(4, 4)
	if _, err := w.Evaluate(v); err == nil {
		t.Fatal("expected dimensionality mismatch error")
	}
	v2 := vec.New(8)
	if _, err := w.Evaluate(v2); err == nil {
		t.Fatal("expected domain mismatch error")
	}
}

func TestCellWeights1D(t *testing.T) {
	w := Prefix(4)
	// Cell i is covered by queries [0,i]..[0,3], i.e. 4-i of them.
	weights := w.CellWeights()
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if weights[i] != want[i] {
			t.Fatalf("weights[%d] = %v, want %v", i, weights[i], want[i])
		}
	}
	if got := w.Sensitivity(); got != 4 {
		t.Fatalf("sensitivity = %v, want 4", got)
	}
}

func TestCellWeights2DMatchesCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := RandomRange2D(6, 6, 25, rng)
	weights := w.CellWeights()
	for cell := 0; cell < 36; cell++ {
		var want float64
		for k := 0; k < w.Size(); k++ {
			if covers(w, k, cell) {
				want++
			}
		}
		if weights[cell] != want {
			t.Fatalf("cell %d: weights %v, covers-count %v", cell, weights[cell], want)
		}
	}
}

// covers reports whether query k of w covers the flat cell index: the
// cell-by-cell reference that CellWeights' difference-array sweep must match.
func covers(w *Workload, k, cell int) bool {
	if len(w.Dims) == 1 {
		lo, hi := w.Range(k)
		return cell >= lo && cell <= hi
	}
	y0, x0, y1, x1 := w.Rect(k)
	y, x := cell/w.Dims[1], cell%w.Dims[1]
	return y >= y0 && y <= y1 && x >= x0 && x <= x1
}

func TestCovers1D(t *testing.T) {
	w := &Workload{Dims: []int{10}}
	w.AddRange(2, 5)
	cases := map[int]bool{1: false, 2: true, 5: true, 6: false}
	for cell, want := range cases {
		if got := covers(w, 0, cell); got != want {
			t.Fatalf("Covers(0,%d) = %v, want %v", cell, got, want)
		}
	}
}

func TestEvaluateFlatMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := vec.New(32)
	for i := range v.Data {
		v.Data[i] = float64(rng.Intn(5))
	}
	w := Prefix(32)
	y1, _ := w.Evaluate(v)
	y2 := w.EvaluateFlat(v.Data)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestPrefixDifferencesGiveRangeQueries(t *testing.T) {
	// The paper's motivation for Prefix: any range [a,b] = P(b) - P(a-1).
	rng := rand.New(rand.NewSource(6))
	n := 50
	v := vec.New(n)
	for i := range v.Data {
		v.Data[i] = float64(rng.Intn(100))
	}
	p, _ := Prefix(n).Evaluate(v)
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		var want float64
		for i := a; i <= b; i++ {
			want += v.Data[i]
		}
		got := p[b]
		if a > 0 {
			got -= p[a-1]
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("range [%d,%d]: %v want %v", a, b, got, want)
		}
	}
}
