// Package workload defines the query workloads W of the benchmark (Section
// 6.2 of the paper): the 1D Prefix workload, random range-query workloads for
// 1D and 2D, the identity workload, and the machinery to evaluate a workload
// against a data vector. Queries are represented as axis-aligned ranges, the
// (hyper-)rectangles of Section 2.2, rather than dense matrix rows, so
// evaluation via prefix sums is O(q) after an O(n) precomputation.
//
// Query bounds are stored flat in struct-of-arrays form (one int32 slice per
// bound) rather than as a slice of per-query structs: evaluating q queries
// walks four contiguous arrays instead of chasing two slice headers per
// query, and the Evaluator type answers a whole workload into a
// caller-provided buffer without allocating. See evaluator.go.
package workload

import (
	"fmt"
	"math/rand"

	"dpbench/internal/vec"
)

// Workload is a set of inclusive axis-aligned range queries over a fixed
// domain. Query k counts the cells with lo_j <= index_j <= hi_j in every
// dimension j; bounds live in the flat lo0/hi0 (dimension 0) and lo1/hi1
// (dimension 1, 2D only) arrays. The zero value with Name and Dims set is a
// valid empty workload; grow it with AddRange or AddRect.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Dims is the domain the queries are defined over.
	Dims []int

	// Struct-of-arrays query bounds, one entry per query.
	lo0, hi0 []int32
	lo1, hi1 []int32
}

// Size returns the number of queries q.
func (w *Workload) Size() int { return len(w.lo0) }

// QueryKey identifies w's query storage for caches of values derived from
// its queries: it points at the first slot of the bound arrays, or is nil
// while w has no room for a query. AddRange, AddRect and Grow allocate
// those arrays on the heap, so unlike w itself, which may be a
// linker-allocated package-level variable, the key can be passed to
// weak.Make. Appending in place keeps the key, so pair it with Size. It is
// a function rather than a method so the public aliases of Workload do not
// carry it.
func QueryKey(w *Workload) *int32 {
	if cap(w.lo0) == 0 {
		return nil
	}
	return &w.lo0[:1][0]
}

// AddRange appends the inclusive 1D range query [lo, hi]. The workload must
// be one-dimensional.
func (w *Workload) AddRange(lo, hi int) {
	if len(w.Dims) != 1 {
		panic("workload: AddRange on a non-1D workload")
	}
	w.lo0 = append(w.lo0, int32(lo))
	w.hi0 = append(w.hi0, int32(hi))
}

// AddRect appends the inclusive rectangle query [y0,y1] x [x0,x1] (rows, then
// columns). The workload must be two-dimensional.
func (w *Workload) AddRect(y0, x0, y1, x1 int) {
	if len(w.Dims) != 2 {
		panic("workload: AddRect on a non-2D workload")
	}
	w.lo0 = append(w.lo0, int32(y0))
	w.hi0 = append(w.hi0, int32(y1))
	w.lo1 = append(w.lo1, int32(x0))
	w.hi1 = append(w.hi1, int32(x1))
}

// Grow pre-allocates capacity for q additional queries.
func (w *Workload) Grow(q int) {
	grow := func(s []int32) []int32 {
		out := make([]int32, len(s), len(s)+q)
		copy(out, s)
		return out
	}
	w.lo0, w.hi0 = grow(w.lo0), grow(w.hi0)
	if len(w.Dims) == 2 {
		w.lo1, w.hi1 = grow(w.lo1), grow(w.hi1)
	}
}

// Range returns the inclusive [lo, hi] bounds of 1D query k.
func (w *Workload) Range(k int) (lo, hi int) {
	return int(w.lo0[k]), int(w.hi0[k])
}

// Rect returns the inclusive bounds (rows [y0,y1], columns [x0,x1]) of 2D
// query k.
func (w *Workload) Rect(k int) (y0, x0, y1, x1 int) {
	return int(w.lo0[k]), int(w.lo1[k]), int(w.hi0[k]), int(w.hi1[k])
}

// Prefix returns the 1D Prefix workload over domain size n: queries [0, i]
// for every i in [0, n). Any 1D range query is the difference of two prefix
// queries, which is why the paper uses it as the canonical 1D workload.
func Prefix(n int) *Workload {
	w := &Workload{Name: fmt.Sprintf("Prefix(%d)", n), Dims: []int{n}}
	w.Grow(n)
	for i := 0; i < n; i++ {
		w.AddRange(0, i)
	}
	return w
}

// Identity returns the workload of n point queries over a 1D domain.
func Identity(n int) *Workload {
	w := &Workload{Name: fmt.Sprintf("Identity(%d)", n), Dims: []int{n}}
	w.Grow(n)
	for i := 0; i < n; i++ {
		w.AddRange(i, i)
	}
	return w
}

// AllRange returns all n*(n+1)/2 range queries over a 1D domain. Intended for
// small n (tests and exact-variance computations).
func AllRange(n int) *Workload {
	w := &Workload{Name: fmt.Sprintf("AllRange(%d)", n), Dims: []int{n}}
	w.Grow(n * (n + 1) / 2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			w.AddRange(i, j)
		}
	}
	return w
}

// RandomRange returns q uniformly random 1D range queries drawn with the
// given rng.
func RandomRange(n, q int, rng *rand.Rand) *Workload {
	w := &Workload{Name: fmt.Sprintf("RandomRange(%d,%d)", n, q), Dims: []int{n}}
	w.Grow(q)
	for k := 0; k < q; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		w.AddRange(a, b)
	}
	return w
}

// RandomRange2D returns q uniformly random rectangle queries over an
// nx x ny domain, the paper's 2D workload (2000 random range queries).
func RandomRange2D(nx, ny, q int, rng *rand.Rand) *Workload {
	w := &Workload{Name: fmt.Sprintf("RandomRange2D(%dx%d,%d)", nx, ny, q), Dims: []int{ny, nx}}
	w.Grow(q)
	for k := 0; k < q; k++ {
		x0, x1 := rng.Intn(nx), rng.Intn(nx)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		y0, y1 := rng.Intn(ny), rng.Intn(ny)
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		w.AddRect(y0, x0, y1, x1)
	}
	return w
}

// Evaluate computes the exact workload answers y = Wx. The vector's
// dimensions must match the workload's.
func (w *Workload) Evaluate(v *vec.Vector) ([]float64, error) {
	if len(v.Dims) != len(w.Dims) {
		return nil, fmt.Errorf("workload: dimensionality mismatch %v vs %v", v.Dims, w.Dims)
	}
	for i := range v.Dims {
		if v.Dims[i] != w.Dims[i] {
			return nil, fmt.Errorf("workload: domain mismatch %v vs %v", v.Dims, w.Dims)
		}
	}
	if len(w.Dims) > 2 {
		return nil, fmt.Errorf("workload: unsupported dimensionality %d", len(w.Dims))
	}
	return w.EvaluateFlat(v.Data), nil
}

// EvaluateFlat is Evaluate for a raw estimate slice already known to match
// the workload's domain (the common case for algorithm outputs). It allocates
// fresh buffers on every call; hot paths should hold an Evaluator instead.
func (w *Workload) EvaluateFlat(data []float64) []float64 {
	ev := NewEvaluator(w)
	ev.Reset(data)
	return ev.AnswerAll(nil)
}

// CellWeights returns, for each cell of the domain, the number of workload
// queries covering it. GreedyH uses this to weight hierarchy levels, and
// MWEM's update step needs per-query membership tests, served by Covers.
func (w *Workload) CellWeights() []float64 {
	n := 1
	for _, d := range w.Dims {
		n *= d
	}
	out := make([]float64, n)
	switch len(w.Dims) {
	case 1:
		// Difference array over inclusive ranges.
		diff := make([]float64, n+1)
		for k := range w.lo0 {
			diff[w.lo0[k]]++
			diff[w.hi0[k]+1]--
		}
		var run float64
		for i := 0; i < n; i++ {
			run += diff[i]
			out[i] = run
		}
	case 2:
		ny, nx := w.Dims[0], w.Dims[1]
		diff := make([]float64, (ny+1)*(nx+1))
		for k := range w.lo0 {
			y0, x0, y1, x1 := int(w.lo0[k]), int(w.lo1[k]), int(w.hi0[k]), int(w.hi1[k])
			diff[y0*(nx+1)+x0]++
			diff[y0*(nx+1)+x1+1]--
			diff[(y1+1)*(nx+1)+x0]--
			diff[(y1+1)*(nx+1)+x1+1]++
		}
		for y := 0; y < ny; y++ {
			var run float64
			for x := 0; x < nx; x++ {
				run += diff[y*(nx+1)+x]
				if y > 0 {
					out[y*nx+x] = out[(y-1)*nx+x] + run
				} else {
					out[y*nx+x] = run
				}
			}
		}
	}
	return out
}

// Sensitivity returns the L1 sensitivity of the workload when answered
// directly: the maximum number of queries any single cell participates in.
func (w *Workload) Sensitivity() float64 {
	weights := w.CellWeights()
	var m float64
	for _, v := range weights {
		if v > m {
			m = v
		}
	}
	return m
}
