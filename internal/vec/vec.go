// Package vec provides the multi-dimensional count-vector representation of
// a private database used throughout DPBench (Section 2.2 of the paper).
//
// A database instance over target attributes B = {B1, ..., Bk} is summarized
// as an array x of cell counts with one cell per element of the cross product
// of the attribute domains. The three key properties DPBench varies are
// domain size n (number of cells), scale ||x||1 (number of tuples), and
// shape p = x/||x||1 (the empirical distribution over the domain).
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a k-dimensional array of cell counts stored flat in row-major
// order. Counts are float64 so noisy estimates can share the representation,
// but vectors produced by the data generator always hold integral counts.
type Vector struct {
	// Dims holds the domain size of each attribute, e.g. [4096] for a 1D
	// histogram or [128, 128] for a 2D one.
	Dims []int
	// Data holds the cell counts flat in row-major order; len(Data) is the
	// product of Dims.
	Data []float64
}

// New returns a zero vector with the given dimensions.
// It panics if any dimension is non-positive.
func New(dims ...int) *Vector {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("vec: non-positive dimension %d", d))
		}
		n *= d
	}
	return &Vector{Dims: append([]int(nil), dims...), Data: make([]float64, n)}
}

// FromData wraps existing data in a Vector, validating the sizes agree.
func FromData(data []float64, dims ...int) (*Vector, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("vec: non-positive dimension %d", d)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("vec: data length %d does not match dims %v (want %d)", len(data), dims, n)
	}
	return &Vector{Dims: append([]int(nil), dims...), Data: data}, nil
}

// N returns the domain size: the total number of cells.
func (v *Vector) N() int { return len(v.Data) }

// K returns the dimensionality (number of attributes).
func (v *Vector) K() int { return len(v.Dims) }

// Scale returns ||x||1, the total count (number of tuples) in the vector.
func (v *Vector) Scale() float64 {
	var s float64
	for _, c := range v.Data {
		s += c
	}
	return s
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	c := New(v.Dims...)
	copy(c.Data, v.Data)
	return c
}

// At returns the count at the given multi-dimensional index.
func (v *Vector) At(idx ...int) float64 {
	return v.Data[v.Offset(idx...)]
}

// Set stores a count at the given multi-dimensional index.
func (v *Vector) Set(val float64, idx ...int) {
	v.Data[v.Offset(idx...)] = val
}

// Offset converts a multi-dimensional index into a flat row-major offset.
// It panics if the index has the wrong arity or is out of range.
func (v *Vector) Offset(idx ...int) int {
	if len(idx) != len(v.Dims) {
		panic(fmt.Sprintf("vec: index arity %d does not match dims %v", len(idx), v.Dims))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= v.Dims[i] {
			panic(fmt.Sprintf("vec: index %v out of range for dims %v", idx, v.Dims))
		}
		off = off*v.Dims[i] + x
	}
	return off
}

// Shape returns the normalized distribution p = x/||x||1. If the vector is
// empty (scale zero) the uniform distribution is returned, matching the
// convention that an empty database carries no shape information.
func (v *Vector) Shape() []float64 {
	p := make([]float64, len(v.Data))
	s := v.Scale()
	if s == 0 {
		u := 1 / float64(len(v.Data))
		for i := range p {
			p[i] = u
		}
		return p
	}
	for i, c := range v.Data {
		p[i] = c / s
	}
	return p
}

// ZeroFraction returns the fraction of cells with a zero count. Table 2 of
// the paper reports this statistic for every dataset.
func (v *Vector) ZeroFraction() float64 {
	z := 0
	for _, c := range v.Data {
		if c == 0 {
			z++
		}
	}
	return float64(z) / float64(len(v.Data))
}

// ErrBadCoarsen is returned when a requested coarsening does not evenly
// divide the current domain.
var ErrBadCoarsen = errors.New("vec: target dims must evenly divide current dims")

// Coarsen aggregates adjacent cells to produce a vector over a smaller
// domain, as DPBench does to derive versions of each dataset with smaller
// domain sizes (Section 6.1). Each target dimension must evenly divide the
// corresponding current dimension.
func (v *Vector) Coarsen(dims ...int) (*Vector, error) {
	if len(dims) != len(v.Dims) {
		return nil, fmt.Errorf("vec: coarsen arity %d does not match dims %v", len(dims), v.Dims)
	}
	factors := make([]int, len(dims))
	for i, d := range dims {
		if d <= 0 || v.Dims[i]%d != 0 {
			return nil, fmt.Errorf("%w: %v -> %v", ErrBadCoarsen, v.Dims, dims)
		}
		factors[i] = v.Dims[i] / d
	}
	out := New(dims...)
	idx := make([]int, len(v.Dims))
	coarse := make([]int, len(v.Dims))
	for off := range v.Data {
		// Decode the row-major offset into idx.
		rem := off
		for i := len(v.Dims) - 1; i >= 0; i-- {
			idx[i] = rem % v.Dims[i]
			rem /= v.Dims[i]
		}
		for i := range idx {
			coarse[i] = idx[i] / factors[i]
		}
		out.Data[out.Offset(coarse...)] += v.Data[off]
	}
	return out, nil
}

// L2Distance returns the Euclidean distance between two vectors of equal
// length.
func L2Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
