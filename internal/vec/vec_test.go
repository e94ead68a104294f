package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	v := New(4, 3)
	if v.N() != 12 {
		t.Fatalf("N() = %d, want 12", v.N())
	}
	if v.K() != 2 {
		t.Fatalf("K() = %d, want 2", v.K())
	}
	for i, c := range v.Data {
		if c != 0 {
			t.Fatalf("cell %d = %v, want 0", i, c)
		}
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(4, 0)
}

func TestFromData(t *testing.T) {
	v, err := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if got := v.At(0, 1); got != 2 {
		t.Fatalf("At(0,1) = %v, want 2", got)
	}
}

func TestFromDataSizeMismatch(t *testing.T) {
	if _, err := FromData([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected error for mismatched data length")
	}
}

func TestFromDataBadDim(t *testing.T) {
	if _, err := FromData([]float64{}, -1); err == nil {
		t.Fatal("expected error for negative dimension")
	}
}

func TestScale(t *testing.T) {
	v, _ := FromData([]float64{1, 2, 3, 4}, 4)
	if got := v.Scale(); got != 10 {
		t.Fatalf("Scale() = %v, want 10", got)
	}
}

func TestSetAndAt(t *testing.T) {
	v := New(3, 3)
	v.Set(7, 2, 1)
	if got := v.At(2, 1); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := v.Data[2*3+1]; got != 7 {
		t.Fatalf("flat offset = %v, want 7", got)
	}
}

func TestOffsetPanics(t *testing.T) {
	v := New(3, 3)
	for _, idx := range [][]int{{3, 0}, {0, -1}, {1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %v", idx)
				}
			}()
			v.Offset(idx...)
		}()
	}
}

func TestClone(t *testing.T) {
	v, _ := FromData([]float64{1, 2, 3, 4}, 4)
	c := v.Clone()
	c.Data[0] = 99
	if v.Data[0] != 1 {
		t.Fatal("clone aliases original data")
	}
}

func TestShapeSumsToOne(t *testing.T) {
	v, _ := FromData([]float64{2, 3, 5}, 3)
	p := v.Shape()
	var sum float64
	for _, x := range p {
		sum += x
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("shape sums to %v, want 1", sum)
	}
	if !almostEqual(p[2], 0.5, 1e-12) {
		t.Fatalf("p[2] = %v, want 0.5", p[2])
	}
}

func TestShapeOfEmptyVectorIsUniform(t *testing.T) {
	v := New(4)
	p := v.Shape()
	for i, pi := range p {
		if !almostEqual(pi, 0.25, 1e-12) {
			t.Fatalf("p[%d] = %v, want 0.25", i, pi)
		}
	}
}

func TestZeroFraction(t *testing.T) {
	v, _ := FromData([]float64{0, 1, 0, 2}, 4)
	if got := v.ZeroFraction(); got != 0.5 {
		t.Fatalf("ZeroFraction = %v, want 0.5", got)
	}
}

func TestCoarsen1D(t *testing.T) {
	v, _ := FromData([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	c, err := v.Coarsen(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 11, 15}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("coarse[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestCoarsen2D(t *testing.T) {
	v, _ := FromData([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 4, 4)
	c, err := v.Coarsen(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{14, 22, 46, 54} // 2x2 block sums
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("coarse[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestCoarsenPreservesScale(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := New(16, 8)
		for i := range v.Data {
			v.Data[i] = float64(rng.Intn(100))
		}
		c, err := v.Coarsen(4, 2)
		if err != nil {
			return false
		}
		return almostEqual(c.Scale(), v.Scale(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoarsenRejectsUneven(t *testing.T) {
	v := New(10)
	if _, err := v.Coarsen(3); err == nil {
		t.Fatal("expected error for non-dividing coarsening")
	}
	if _, err := v.Coarsen(4, 4); err == nil {
		t.Fatal("expected error for arity mismatch")
	}
	if _, err := v.Coarsen(0); err == nil {
		t.Fatal("expected error for zero target dim")
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0, 3}
	b := []float64{0, 4, 0}
	if got := L2Distance(a, b); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	L2Distance([]float64{1}, []float64{1, 2})
}

func TestL2AtMostL1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := make([]float64, n)
		b := make([]float64, n)
		var l1 float64
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
			l1 += math.Abs(a[i] - b[i])
		}
		return L2Distance(a, b) <= l1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
