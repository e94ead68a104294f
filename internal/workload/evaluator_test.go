package workload

import (
	"math"
	"math/rand"
	"testing"

	"dpbench/internal/vec"
)

// referenceEvaluate1D is the pre-Evaluator per-call implementation, kept as
// the golden oracle: the Evaluator must reproduce its output bit for bit.
func referenceEvaluate1D(w *Workload, data []float64) []float64 {
	n := w.Dims[0]
	prefix := make([]float64, n+1)
	for i, x := range data {
		prefix[i+1] = prefix[i] + x
	}
	out := make([]float64, w.Size())
	for k := range out {
		lo, hi := w.Range(k)
		out[k] = prefix[hi+1] - prefix[lo]
	}
	return out
}

// referenceEvaluate2D is the pre-Evaluator summed-area implementation.
func referenceEvaluate2D(w *Workload, data []float64) []float64 {
	ny, nx := w.Dims[0], w.Dims[1]
	sat := make([]float64, (nx+1)*(ny+1))
	at := func(y, x int) float64 { return sat[y*(nx+1)+x] }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			sat[(y+1)*(nx+1)+x+1] = data[y*nx+x] + at(y, x+1) + at(y+1, x) - at(y, x)
		}
	}
	out := make([]float64, w.Size())
	for k := range out {
		y0, x0, y1, x1 := w.Rect(k)
		out[k] = at(y1+1, x1+1) - at(y0, x1+1) - at(y1+1, x0) + at(y0, x0)
	}
	return out
}

func randomData(rng *rand.Rand, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64() * 100
	}
	return data
}

func TestEvaluatorMatchesReference1DBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 33, 256} {
		for _, w := range []*Workload{Prefix(n), Identity(n), RandomRange(n, 3*n, rng)} {
			data := randomData(rng, n)
			want := referenceEvaluate1D(w, data)
			ev := NewEvaluator(w)
			ev.Reset(data)
			got := ev.AnswerAll(make([]float64, w.Size()))
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s n=%d query %d: got %v, want %v (bitwise)", w.Name, n, k, got[k], want[k])
				}
			}
		}
	}
}

func TestEvaluatorMatchesReference2DBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{4, 4}, {5, 9}, {16, 16}} {
		ny, nx := dims[0], dims[1]
		w := RandomRange2D(nx, ny, 200, rng)
		data := randomData(rng, nx*ny)
		want := referenceEvaluate2D(w, data)
		ev := NewEvaluator(w)
		ev.Reset(data)
		got := ev.AnswerAll(make([]float64, w.Size()))
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s query %d: got %v, want %v (bitwise)", w.Name, k, got[k], want[k])
			}
		}
	}
}

func TestEvaluatorReuseAcrossEstimates(t *testing.T) {
	// A reused Evaluator must give the same answers as a fresh one for every
	// new estimate (stale table state must be fully overwritten), in 1D and
	// 2D, including after a shrinking-then-growing sequence of values.
	rng := rand.New(rand.NewSource(43))
	w1 := RandomRange(64, 128, rng)
	w2 := RandomRange2D(8, 8, 100, rng)
	ev1, ev2 := NewEvaluator(w1), NewEvaluator(w2)
	buf1 := make([]float64, w1.Size())
	buf2 := make([]float64, w2.Size())
	for trial := 0; trial < 20; trial++ {
		d1, d2 := randomData(rng, 64), randomData(rng, 64)
		ev1.Reset(d1)
		ev1.AnswerAll(buf1)
		want1 := referenceEvaluate1D(w1, d1)
		for k := range buf1 {
			if buf1[k] != want1[k] {
				t.Fatalf("trial %d 1D query %d: got %v want %v", trial, k, buf1[k], want1[k])
			}
		}
		ev2.Reset(d2)
		ev2.AnswerAll(buf2)
		want2 := referenceEvaluate2D(w2, d2)
		for k := range buf2 {
			if buf2[k] != want2[k] {
				t.Fatalf("trial %d 2D query %d: got %v want %v", trial, k, buf2[k], want2[k])
			}
		}
	}
}

func TestEvaluatorTotal(t *testing.T) {
	w := Prefix(8)
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ev := NewEvaluator(w)
	ev.Reset(data)
	if got := ev.Total(); got != 36 {
		t.Fatalf("Total = %v, want 36", got)
	}
}

func TestEvaluatorZeroAllocs(t *testing.T) {
	// The tentpole guarantee: after construction, Reset + AnswerAll allocate
	// nothing, in both dimensionalities.
	rng := rand.New(rand.NewSource(44))
	w1 := Prefix(512)
	ev1 := NewEvaluator(w1)
	d1 := randomData(rng, 512)
	buf1 := make([]float64, w1.Size())
	if allocs := testing.AllocsPerRun(100, func() {
		ev1.Reset(d1)
		ev1.AnswerAll(buf1)
	}); allocs != 0 {
		t.Fatalf("1D Evaluator fast path allocates %v per run, want 0", allocs)
	}

	w2 := RandomRange2D(32, 32, 500, rng)
	ev2 := NewEvaluator(w2)
	d2 := randomData(rng, 32*32)
	buf2 := make([]float64, w2.Size())
	if allocs := testing.AllocsPerRun(100, func() {
		ev2.Reset(d2)
		ev2.AnswerAll(buf2)
	}); allocs != 0 {
		t.Fatalf("2D Evaluator fast path allocates %v per run, want 0", allocs)
	}
}

func TestEvaluatorPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	w := Prefix(4)
	ev := NewEvaluator(w)
	mustPanic("short data", func() { ev.Reset([]float64{1, 2}) })
	ev.Reset([]float64{1, 2, 3, 4})
	mustPanic("short buffer", func() { ev.AnswerAll(make([]float64, 1)) })
	mustPanic("3D workload", func() { NewEvaluator(&Workload{Dims: []int{2, 2, 2}}) })
}

func TestEvaluateFlatStillMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	v := vec.New(40)
	for i := range v.Data {
		v.Data[i] = float64(rng.Intn(9))
	}
	w := RandomRange(40, 60, rng)
	y1, err := w.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	y2 := w.EvaluateFlat(v.Data)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
	if math.IsNaN(y1[0]) {
		t.Fatal("unexpected NaN")
	}
}

func TestEvaluateRejectsUnsupportedDimensionality(t *testing.T) {
	w := &Workload{Dims: []int{2, 2, 2}}
	v := vec.New(2, 2, 2)
	if _, err := w.Evaluate(v); err == nil {
		t.Fatal("expected unsupported-dimensionality error, not a panic or nil")
	}
}

// BenchmarkEvaluatorReset2D rebuilds the summed-area table of the sweep's
// 128x128 domain, the table core's per-trial scoring and every 2D MWEM
// round rebuild.
func BenchmarkEvaluatorReset2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := RandomRange2D(128, 128, 2000, rng)
	data := randomData(rng, 128*128)
	ev := NewEvaluator(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(data)
	}
}
