package algo

import (
	"fmt"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Privelet is the wavelet mechanism of Xiao, Wang and Gehrke (ICDE 2010): it
// measures the discrete Haar wavelet coefficients of x under Laplace noise
// and reconstructs by the inverse transform. Any range query touches only
// O(log n) coefficients, so range-query variance grows polylogarithmically in
// the domain size instead of linearly.
//
// This implementation uses the average-normalized Haar basis (coefficient of
// a node with block size s is (sumLeft - sumRight)/s), under which the L1
// sensitivity of the full coefficient vector is exactly 1 per record: a
// record contributes 1/n to the average coefficient and 1/s to one
// coefficient per level, and 1/n + sum_{s=2,4,...,n} 1/s = 1. Each
// coefficient therefore receives Laplace(1/eps) noise. For 2D the transform
// is applied separably (rows then columns), and the per-record sensitivity is
// the product of the axis sensitivities, again 1.
type Privelet struct{}

func init() { Register("PRIVELET", func() Algorithm { return Privelet{} }) }

// Name implements Algorithm.
func (Privelet) Name() string { return "PRIVELET" }

// Supports implements Algorithm.
func (Privelet) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (Privelet) DataDependent() bool { return false }

// Run implements Algorithm.
func (p Privelet) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(p, x, w, eps, rng)
}

// CompositionPlan implements Planner. The full wavelet coefficient vector is
// one vector-valued query with per-record L1 sensitivity 1 (see the type
// comment), so its per-coefficient draws jointly cost eps. "coeffs" appears
// under both kinds because the 1D path charges the vector query once
// (sequential) while the 2D path charges its interleaved per-cell draws as
// one scope (parallel aggregation to the same eps total).
func (Privelet) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "coeffs", Kind: noise.Sequential},
		{Label: "coeffs", Kind: noise.Parallel},
	}
}

// Plan implements Algorithm: the forward wavelet transform of the data is
// trial-independent, so it runs once here; a trial is noise on the cached
// coefficients plus the inverse transform through pooled buffers.
func (Privelet) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	switch x.K() {
	case 1:
		c, err := transform.HaarForward(padPow2(x.Data))
		if err != nil {
			return nil, err
		}
		p := &priveletPlan1D{coeffs: c, n: x.N(), eps: eps}
		nc := len(c)
		p.bufs = scratchPool(scratchKey{mech: "PRIVELET", sizes: [3]int{nc}}, func() any {
			return &haarScratch{a: make([]float64, nc), b: make([]float64, nc), noisy: make([]float64, nc)}
		})
		return p, nil
	case 2:
		grid, err := priveletForward2D(x.Data, x.Dims[1], x.Dims[0])
		if err != nil {
			return nil, err
		}
		px := len(grid[0])
		py := len(grid)
		p := &priveletPlan2D{coeffs: grid, nx: x.Dims[1], ny: x.Dims[0], px: px, py: py, eps: eps}
		p.bufs = scratchPool(scratchKey{mech: "PRIVELET-2D", sizes: [3]int{px, py}}, func() any {
			return &haar2DScratch{
				grid: make([]float64, px*py),
				col:  make([]float64, py), colOut: make([]float64, py), colTmp: make([]float64, py),
				row: make([]float64, px), rowTmp: make([]float64, px),
			}
		})
		return p, nil
	default:
		return nil, fmt.Errorf("privelet: unsupported dimensionality %d", x.K())
	}
}

// haarScratch is one 1D trial's buffers: the noisy coefficients and the
// inverse transform's ping-pong pair.
type haarScratch struct{ a, b, noisy []float64 }

type priveletPlan1D struct {
	coeffs []float64 // forward transform of the (padded) data
	n      int
	eps    float64
	bufs   *sync.Pool // *haarScratch
}

//dp:hotpath
func (p *priveletPlan1D) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*haarScratch)
	defer p.bufs.Put(sc)
	noisy := m.LaplaceVecInto("coeffs", sc.noisy, p.coeffs, 1/p.eps, p.eps)
	if err := transform.HaarInverseInto(sc.a, sc.b, noisy); err != nil {
		return err
	}
	copy(out, sc.a[:p.n])
	return m.Err()
}

// priveletForward2D applies the separable forward transform (rows then
// columns) to the zero-padded grid, returning the fully transformed
// coefficient grid. It is exactly the deterministic prefix of the seed
// implementation's per-trial work.
func priveletForward2D(data []float64, nx, ny int) ([][]float64, error) {
	px, py := nextPow2(nx), nextPow2(ny)
	grid := make([][]float64, py)
	for y := 0; y < py; y++ {
		row := make([]float64, px)
		if y < ny {
			copy(row, data[y*nx:(y+1)*nx])
		}
		c, err := transform.HaarForward(row)
		if err != nil {
			return nil, err
		}
		grid[y] = c
	}
	for xcol := 0; xcol < px; xcol++ {
		col := make([]float64, py)
		for y := 0; y < py; y++ {
			col[y] = grid[y][xcol]
		}
		c, err := transform.HaarForward(col)
		if err != nil {
			return nil, err
		}
		for y := 0; y < py; y++ {
			grid[y][xcol] = c[y]
		}
	}
	return grid, nil
}

// haar2DScratch is one 2D trial's buffers: the noisy coefficient grid and
// the per-column/per-row inverse transform scratch.
type haar2DScratch struct {
	grid                []float64 // px*py noisy coefficients, row-major
	col, colOut, colTmp []float64
	row, rowTmp         []float64
}

type priveletPlan2D struct {
	coeffs         [][]float64
	nx, ny, px, py int
	eps            float64
	bufs           *sync.Pool // *haar2DScratch
}

//dp:hotpath
func (p *priveletPlan2D) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*haar2DScratch)
	defer p.bufs.Put(sc)
	// Noise draws walk the grid column-major, matching the seed
	// implementation's interleaved draw order exactly.
	for xcol := 0; xcol < p.px; xcol++ {
		for y := 0; y < p.py; y++ {
			sc.grid[y*p.px+xcol] = p.coeffs[y][xcol] + m.LaplacePar("coeffs", 1/p.eps, p.eps)
		}
	}
	// Invert columns then rows.
	for xcol := 0; xcol < p.px; xcol++ {
		for y := 0; y < p.py; y++ {
			sc.col[y] = sc.grid[y*p.px+xcol]
		}
		if err := transform.HaarInverseInto(sc.colOut, sc.colTmp, sc.col); err != nil {
			return err
		}
		for y := 0; y < p.py; y++ {
			sc.grid[y*p.px+xcol] = sc.colOut[y]
		}
	}
	for y := 0; y < p.ny; y++ {
		if err := transform.HaarInverseInto(sc.row, sc.rowTmp, sc.grid[y*p.px:(y+1)*p.px]); err != nil {
			return err
		}
		copy(out[y*p.nx:(y+1)*p.nx], sc.row[:p.nx])
	}
	return m.Err()
}

// padPow2 zero-pads a slice to the next power-of-two length (no copy when
// already a power of two).
func padPow2(x []float64) []float64 {
	n := len(x)
	p := nextPow2(n)
	if p == n {
		return x
	}
	out := make([]float64, p)
	copy(out, x)
	return out
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
