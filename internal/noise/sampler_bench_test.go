package noise

import (
	"testing"
)

// Sampler microbenchmarks for the draw shapes the mechanisms are built
// from. They record the per-draw sampler floor in the BENCH_*.json
// trajectory directly (scripts/bench.sh picks them up); the sub-benchmarks
// keep their "legacy" names so earlier records still diff against them.

var (
	sinkF float64
	sinkI int
)

func BenchmarkLaplaceDraw(b *testing.B) {
	rng := NewRand(7)
	b.Run("legacy", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t += Laplace(rng, 10)
		}
		sinkF = t
	})
}

func BenchmarkLaplaceVecBatch(b *testing.B) {
	const n = 4096
	rng := NewRand(7)
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LaplaceVecInto(rng, dst, x, 10)
		}
		sinkF = dst[0]
	})
}

func BenchmarkExpMechTop1(b *testing.B) {
	const n = 4096
	rng := NewRand(7)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i%31) / 31
	}
	weights := make([]float64, n)
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := ExpMechBuf(rng, scores, 1, 0.05, weights)
			if err != nil {
				b.Fatal(err)
			}
			sinkI = idx
		}
	})
}

func BenchmarkGeometricDraw(b *testing.B) {
	rng := NewRand(7)
	b.Run("legacy", func(b *testing.B) {
		var t int64
		for i := 0; i < b.N; i++ {
			t += Geometric(rng, 10)
		}
		sinkI = int(t)
	})
}
