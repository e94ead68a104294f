// Package matrix implements the matrix mechanism of Li et al. (PODS 2010 /
// VLDBJ 2015), the generic framework the paper uses to unify every
// data-independent algorithm it evaluates (Section 3.1): select a strategy
// matrix S of linear queries, measure Sx under Laplace noise calibrated to
// S's sensitivity, and reconstruct workload answers by least squares. The
// package provides dense matrices, the pseudo-inverse reconstruction, exact
// expected-error computation, and the strategy matrices of the hierarchical
// and wavelet mechanisms so their matrix-mechanism equivalence is testable.
// No production code imports it: it is the exact-variance oracle that
// internal/algo's tests hold the data-independent mechanisms to.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
)

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zero rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec computes m * x into a fresh slice.
func (m *Dense) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.Rows), x)
}

// MulVecInto computes m * x into dst (len m.Rows) and returns it, allocating
// nothing. dst may hold stale values; it is fully overwritten.
func (m *Dense) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic("matrix: MulVec dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("matrix: MulVecInto destination length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// TransposeMulVec computes m^T * y into a fresh slice.
func (m *Dense) TransposeMulVec(y []float64) []float64 {
	return m.TransposeMulVecInto(make([]float64, m.Cols), y)
}

// TransposeMulVecInto computes m^T * y into dst (len m.Cols) and returns it,
// allocating nothing. dst is zeroed first, so it may hold stale values.
func (m *Dense) TransposeMulVecInto(dst, y []float64) []float64 {
	if len(y) != m.Rows {
		panic("matrix: TransposeMulVec dimension mismatch")
	}
	if len(dst) != m.Cols {
		panic("matrix: TransposeMulVecInto destination length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += v * yi
		}
	}
	return dst
}

// Gram computes m^T * m (Cols x Cols).
func (m *Dense) Gram() *Dense {
	g := NewDense(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for a := 0; a < m.Cols; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			for b := a; b < m.Cols; b++ {
				g.Data[a*m.Cols+b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < m.Cols; a++ {
		for b := 0; b < a; b++ {
			g.Data[a*m.Cols+b] = g.Data[b*m.Cols+a]
		}
	}
	return g
}

// Sensitivity returns the L1 sensitivity of the strategy: the maximum column
// L1 norm (one record changes one cell count by 1, perturbing each strategy
// answer by the corresponding column entry).
func (m *Dense) Sensitivity() float64 {
	var best float64
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += math.Abs(m.At(i, j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Solver is a factored SPD system G = L L^T with reusable solve scratch:
// factor once, then Solve any number of right-hand sides with zero
// allocations per call. It replaces the factor-per-call pattern of the old
// CholeskySolve for any caller that hits the same system repeatedly
// (Mechanism caches one internally for its trial loop).
type Solver struct {
	L   *Dense
	fwd []float64
}

// NewSolver factors the SPD matrix g.
func NewSolver(g *Dense) (*Solver, error) {
	L, err := CholeskyFactor(g)
	if err != nil {
		return nil, err
	}
	return &Solver{L: L, fwd: make([]float64, g.Rows)}, nil
}

// Solve writes the solution of G z = b into z (len g.Rows) and returns it; a
// nil z allocates. The Solver's internal scratch makes this not safe for
// concurrent use; share the factor L via SolveFactored with per-caller
// scratch instead.
func (s *Solver) Solve(b, z []float64) []float64 {
	if z == nil {
		z = make([]float64, s.L.Rows)
	}
	SolveFactored(s.L, b, z, s.fwd)
	return z
}

// CholeskySolve solves the SPD system G z = b via Cholesky factorization.
// G must be symmetric positive definite (true for S^T S when S has full
// column rank). It factors per call — one-shot use only; repeated solves
// against the same G should hold a Solver (or a Mechanism, which caches its
// strategy's factor across trials).
func CholeskySolve(g *Dense, b []float64) ([]float64, error) {
	if len(b) != g.Rows {
		return nil, fmt.Errorf("matrix: CholeskySolve shape mismatch")
	}
	s, err := NewSolver(g)
	if err != nil {
		return nil, err
	}
	return s.Solve(b, nil), nil
}

// CholeskyFactor computes the lower-triangular factor L with G = L L^T.
func CholeskyFactor(g *Dense) (*Dense, error) {
	n := g.Rows
	if g.Cols != n {
		return nil, fmt.Errorf("matrix: CholeskyFactor shape mismatch")
	}
	L := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := g.At(i, j)
			for k := 0; k < j; k++ {
				sum -= L.At(i, k) * L.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("matrix: not positive definite at %d (pivot %v)", i, sum)
				}
				L.Set(i, j, math.Sqrt(sum))
			} else {
				L.Set(i, j, sum/L.At(j, j))
			}
		}
	}
	return L, nil
}

// SolveFactored solves L L^T z = b given the Cholesky factor L, writing the
// solution into z using fwd (both len n) as the forward-substitution
// scratch. It allocates nothing; z and fwd may alias b only if the caller no
// longer needs b.
func SolveFactored(L *Dense, b, z, fwd []float64) {
	n := L.Rows
	if len(b) != n || len(z) != n || len(fwd) != n {
		panic("matrix: SolveFactored length mismatch")
	}
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= L.At(i, k) * fwd[k]
		}
		fwd[i] = sum / L.At(i, i)
	}
	// Back substitution L^T z = y.
	for i := n - 1; i >= 0; i-- {
		sum := fwd[i]
		for k := i + 1; k < n; k++ {
			sum -= L.At(k, i) * z[k]
		}
		z[i] = sum / L.At(i, i)
	}
}

// Mechanism is one instance of the matrix mechanism: a strategy matrix with
// full column rank over an n-cell domain. The Cholesky factor of the Gram
// matrix and the strategy sensitivity are computed once on first use and
// shared by every Run, so repeated trials pay two triangular solves instead
// of a fresh O(n^3) factorization; per-trial scratch vectors come from an
// internal pool, keeping concurrent Runs safe and allocation-light.
type Mechanism struct {
	Strategy *Dense
	gram     *Dense

	once    sync.Once
	chol    *Dense
	cholErr error
	sens    float64
	scratch sync.Pool // *mechScratch
}

// mechScratch holds one trial's intermediate vectors.
type mechScratch struct {
	y   []float64 // noisy strategy answers (len Rows)
	b   []float64 // S^T y (len Cols)
	fwd []float64 // forward-substitution temp (len Cols)
}

// NewMechanism validates and prepares a strategy.
func NewMechanism(strategy *Dense) (*Mechanism, error) {
	if strategy.Rows < strategy.Cols {
		return nil, fmt.Errorf("matrix: strategy must have at least as many rows as columns")
	}
	return &Mechanism{Strategy: strategy, gram: strategy.Gram()}, nil
}

// prepare computes the cached Cholesky factor and sensitivity exactly once.
func (mm *Mechanism) prepare() error {
	mm.once.Do(func() {
		mm.sens = mm.Strategy.Sensitivity()
		mm.chol, mm.cholErr = CholeskyFactor(mm.gram)
	})
	return mm.cholErr
}

// Run measures Sx under Laplace noise calibrated to the strategy sensitivity
// and reconstructs the least-squares cell estimate
// x-hat = (S^T S)^{-1} S^T (Sx + noise) into a fresh slice.
func (mm *Mechanism) Run(x []float64, eps float64, rng *rand.Rand) ([]float64, error) {
	out := make([]float64, mm.Strategy.Cols)
	if err := mm.RunInto(out, x, eps, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto is Run writing the estimate into a caller-provided buffer (len
// Strategy.Cols), so a trial loop over one strategy performs no per-trial
// allocations at all: the factor is cached, the intermediates pooled.
func (mm *Mechanism) RunInto(out, x []float64, eps float64, rng *rand.Rand) error {
	if eps <= 0 {
		return fmt.Errorf("matrix: non-positive epsilon")
	}
	if len(x) != mm.Strategy.Cols {
		return fmt.Errorf("matrix: data has %d cells, strategy expects %d", len(x), mm.Strategy.Cols)
	}
	if len(out) != mm.Strategy.Cols {
		return fmt.Errorf("matrix: output has %d cells, strategy expects %d", len(out), mm.Strategy.Cols)
	}
	if err := mm.prepare(); err != nil {
		return err
	}
	sc, _ := mm.scratch.Get().(*mechScratch)
	if sc == nil {
		sc = &mechScratch{
			y:   make([]float64, mm.Strategy.Rows),
			b:   make([]float64, mm.Strategy.Cols),
			fwd: make([]float64, mm.Strategy.Cols),
		}
	}
	defer mm.scratch.Put(sc)
	y := mm.Strategy.MulVecInto(sc.y, x)
	for i := range y {
		y[i] += noise.Laplace(rng, mm.sens/eps)
	}
	b := mm.Strategy.TransposeMulVecInto(sc.b, y)
	SolveFactored(mm.chol, b, out, sc.fwd)
	return nil
}

// ExpectedCellVariances returns the exact per-cell variance of the estimator
// at budget eps: diag((S^T S)^{-1}) * 2 * (sens/eps)^2. This is the
// analytical error the paper's data-independent analysis relies on ("the
// error for this class of techniques is well-understood").
func (mm *Mechanism) ExpectedCellVariances(eps float64) ([]float64, error) {
	if err := mm.prepare(); err != nil {
		return nil, err
	}
	n := mm.Strategy.Cols
	noiseVar := 2 * mm.sens * mm.sens / (eps * eps)
	out := make([]float64, n)
	// Solve G z = e_j per column to read diag(G^{-1}).
	e := make([]float64, n)
	z := make([]float64, n)
	fwd := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		SolveFactored(mm.chol, e, z, fwd)
		out[j] = z[j] * noiseVar
	}
	return out, nil
}

// IdentityStrategy returns the n x n identity strategy (the IDENTITY
// baseline as a matrix mechanism).
func IdentityStrategy(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// HierarchicalStrategy returns the strategy of the H mechanism: one row per
// node of a b-ary interval tree over n cells, each row the indicator of the
// node's interval.
func HierarchicalStrategy(n, b int) *Dense {
	type span struct{ lo, hi int }
	var spans []span
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		spans = append(spans, span{lo, hi})
		if hi-lo <= 1 {
			return
		}
		chunks := b
		if hi-lo < b {
			chunks = hi - lo
		}
		start := lo
		for i := 0; i < chunks; i++ {
			end := lo + (hi-lo)*(i+1)/chunks
			if end > start {
				rec(start, end)
				start = end
			}
		}
	}
	rec(0, n)
	m := NewDense(len(spans), n)
	for i, s := range spans {
		for j := s.lo; j < s.hi; j++ {
			m.Set(i, j, 1)
		}
	}
	return m
}

// HaarStrategy returns the average-normalized Haar wavelet strategy used by
// this repository's Privelet implementation (n must be a power of two).
func HaarStrategy(n int) (*Dense, error) {
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("matrix: Haar strategy needs power-of-two n, got %d", n)
	}
	m := NewDense(n, n)
	// Row 0: overall average.
	for j := 0; j < n; j++ {
		m.Set(0, j, 1/float64(n))
	}
	row := 1
	for size := n; size >= 2; size /= 2 {
		for lo := 0; lo+size <= n; lo += size {
			half := size / 2
			for j := lo; j < lo+half; j++ {
				m.Set(row, j, 1/float64(size))
			}
			for j := lo + half; j < lo+size; j++ {
				m.Set(row, j, -1/float64(size))
			}
			row++
		}
	}
	return m, nil
}
