package algo

import (
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// DPCube is the multidimensional partitioning algorithm of Xiao et al.
// (Transactions on Data Privacy 2014). It first obtains noisy counts for
// every cell with a rho fraction of the budget, builds a kd-tree over the
// noisy counts (splitting along the wider dimension at the noisy-mass
// median until partitions are nearly uniform or smaller than MinCells),
// obtains fresh noisy counts for the partitions with the remaining budget,
// and combines the two estimates per cell by precision weighting.
type DPCube struct {
	// Rho is the budget fraction for the initial cell counts (paper: 0.5).
	Rho float64
	// MinCells stops kd-tree splits below this partition size (paper's
	// n_p = 10).
	MinCells int
}

func init() { Register("DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }) }

// Name implements Algorithm.
func (d *DPCube) Name() string { return "DPCUBE" }

// Supports implements Algorithm.
func (d *DPCube) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (d *DPCube) DataDependent() bool { return true }

// Run implements Algorithm.
func (d *DPCube) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(d, x, w, eps, rng)
}

// dpcubePlan resolves the parameters once; the kd-tree is re-derived from
// each trial's fresh noisy histogram (that is the mechanism), with the
// histogram and partition buffers recycled across trials.
type dpcubePlan struct {
	data       []float64
	nx, ny     int  // ny == 1 in 1D
	twoD       bool // a 2D grid splits as one even when it has a single row
	minCells   int
	eps1, eps2 float64
	bufs       *sync.Pool // *dpcubeScratch
}

// dpcubeScratch is one trial's noisy histogram, the kd leaves it splits
// into (a 1D partition is a one-row rectangle), and the marginal the 2D
// split sums into.
type dpcubeScratch struct {
	noisy []float64
	parts []kdRect
	marg  []float64
}

// Plan implements Algorithm.
func (d *DPCube) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	rho := d.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	minCells := d.MinCells
	if minCells < 1 {
		minCells = 10
	}
	nx, ny := x.Dims[len(x.Dims)-1], 1
	if len(x.Dims) == 2 {
		ny = x.Dims[0]
	}
	p := &dpcubePlan{
		data: x.Data, nx: nx, ny: ny, twoD: len(x.Dims) == 2, minCells: minCells,
		eps1: rho * eps, eps2: (1 - rho) * eps,
	}
	p.bufs = scratchPool(scratchKey{mech: "DPCUBE", sizes: [3]int{nx, ny}}, func() any {
		return &dpcubeScratch{
			noisy: make([]float64, nx*ny),
			parts: make([]kdRect, 0, 64),
			marg:  make([]float64, maxInt(nx, ny)),
		}
	})
	return p, nil
}

//dp:hotpath
func (p *dpcubePlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*dpcubeScratch)
	defer p.bufs.Put(sc)
	noisy := m.LaplaceVecInto("counts", sc.noisy, p.data, 1/p.eps1, p.eps1)
	cellVar := 2 / (p.eps1 * p.eps1)

	// kd-tree over the noisy counts (pure post-processing of DP output),
	// then fresh counts for the partitions and a precision-weighted merge
	// with the per-cell noisy estimates. Partition estimates spread
	// uniformly carry variance 2/(eps2^2 * |p|^2) per cell (ignoring
	// uniformity bias); per-cell estimates carry 2/eps1^2.
	nx := p.nx
	whole := kdRect{0, 0, nx, p.ny}
	if p.twoD {
		sc.parts = kdSplit2D(noisy, nx, whole, p.minCells, 1/p.eps1, sc.marg, sc.parts[:0])
	} else {
		sc.parts = kdSplit1D(noisy, whole, p.minCells, 1/p.eps1, sc.parts[:0])
	}
	for _, r := range sc.parts {
		// Row-major within the partition: the order of the sum is part of
		// the output's bits.
		var trueTotal float64
		for y := r.y0; y < r.y1; y++ {
			for _, v := range p.data[y*nx+r.x0 : y*nx+r.x1] {
				trueTotal += v
			}
		}
		est := trueTotal + m.LaplacePar("parts", 1/p.eps2, p.eps2)
		size := float64(r.area())
		partPerCell := est / size
		partVar := 2 / (p.eps2 * p.eps2 * size * size)
		wPart := cellVar / (cellVar + partVar)
		for y := r.y0; y < r.y1; y++ {
			row := y * nx
			for cell := row + r.x0; cell < row+r.x1; cell++ {
				out[cell] = wPart*partPerCell + (1-wPart)*noisy[cell]
			}
		}
	}
	return m.Err()
}

// CompositionPlan implements Planner: the initial per-cell histogram is one
// vector query at rho*eps; the kd-tree is post-processing; the fresh
// partition counts are disjoint and compose in parallel to the remaining
// (1-rho)*eps.
func (d *DPCube) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "counts", Kind: noise.Sequential},
		{Label: "parts", Kind: noise.Parallel},
	}
}

// kdRect is the half-open cell rectangle [x0, x1) x [y0, y1).
type kdRect struct{ x0, y0, x1, y1 int }

func (r kdRect) area() int { return (r.x1 - r.x0) * (r.y1 - r.y0) }

// kdSplit1D recursively partitions the one-row rectangle r of the noisy
// histogram, splitting at the mass median while the interval looks
// non-uniform relative to the noise level, and appends the leaves to parts
// in left-to-right order.
func kdSplit1D(noisy []float64, r kdRect, minCells int, noiseUnit float64, parts []kdRect) []kdRect {
	lo, hi := r.x0, r.x1
	if hi-lo <= 1 || stopSplitting(noisy, len(noisy), r, minCells, noiseUnit) {
		return append(parts, r)
	}
	mid := massMedian(noisy, lo, hi)
	if mid <= lo || mid >= hi {
		mid = (lo + hi) / 2
	}
	parts = kdSplit1D(noisy, kdRect{lo, 0, mid, 1}, minCells, noiseUnit, parts)
	return kdSplit1D(noisy, kdRect{mid, 0, hi, 1}, minCells, noiseUnit, parts)
}

// kdSplit2D recursively partitions the rectangle r of the noisy grid (row
// stride nx), splitting the wider dimension at its marginal-mass median
// while the rectangle looks non-uniform, and appends the leaves to parts in
// the order of the recursion (lower half first). The grid is read in place;
// marg (at least max(width, height) long) holds the marginal of the node
// being split and is free again once its cut is chosen.
func kdSplit2D(noisy []float64, nx int, r kdRect, minCells int, noiseUnit float64, marg []float64, parts []kdRect) []kdRect {
	if r.area() <= 1 || stopSplitting(noisy, nx, r, minCells, noiseUnit) {
		return append(parts, r)
	}
	w, h := r.x1-r.x0, r.y1-r.y0
	if w >= h && w > 1 {
		// Column marginal: each column sums its rows top to bottom.
		mg := marg[:w]
		clear(mg)
		for y := r.y0; y < r.y1; y++ {
			for i, v := range noisy[y*nx+r.x0 : y*nx+r.x1] {
				mg[i] += v
			}
		}
		cut := r.x0 + marginalMedian(mg)
		if cut <= r.x0 || cut >= r.x1 {
			cut = (r.x0 + r.x1) / 2
		}
		parts = kdSplit2D(noisy, nx, kdRect{r.x0, r.y0, cut, r.y1}, minCells, noiseUnit, marg, parts)
		return kdSplit2D(noisy, nx, kdRect{cut, r.y0, r.x1, r.y1}, minCells, noiseUnit, marg, parts)
	}
	// h > 1 here: a rectangle of one row and one column stopped above.
	// Row marginal: each row sums its cells left to right.
	mg := marg[:h]
	for y := r.y0; y < r.y1; y++ {
		var sum float64
		for _, v := range noisy[y*nx+r.x0 : y*nx+r.x1] {
			sum += v
		}
		mg[y-r.y0] = sum
	}
	cut := r.y0 + marginalMedian(mg)
	if cut <= r.y0 || cut >= r.y1 {
		cut = (r.y0 + r.y1) / 2
	}
	parts = kdSplit2D(noisy, nx, kdRect{r.x0, r.y0, r.x1, cut}, minCells, noiseUnit, marg, parts)
	return kdSplit2D(noisy, nx, kdRect{r.x0, cut, r.x1, r.y1}, minCells, noiseUnit, marg, parts)
}

// stopSplitting reports whether the rectangle r of the noisy grid (row
// stride nx, read in place row by row) should become a leaf: its value
// spread is small relative to the Laplace noise (so splitting cannot pay
// off), with a stricter bar below the MinCells size so small partitions only
// keep splitting when the non-uniformity clearly exceeds the noise floor. As
// the budget grows the noise unit vanishes and any real non-uniformity keeps
// splitting, which is what makes DPCube consistent (Theorem 3).
func stopSplitting(noisy []float64, nx int, r kdRect, minCells int, noiseUnit float64) bool {
	lo := noisy[r.y0*nx+r.x0]
	hi := lo
	for y := r.y0; y < r.y1; y++ {
		for _, v := range noisy[y*nx+r.x0 : y*nx+r.x1] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	threshold := 4 * noiseUnit
	if r.area() <= minCells {
		threshold = 8 * noiseUnit
	}
	return hi-lo <= threshold
}

// massMedian returns the index m in (lo, hi) splitting the positive mass of
// noisy[lo:hi] roughly in half.
func massMedian(noisy []float64, lo, hi int) int {
	var total float64
	for i := lo; i < hi; i++ {
		if noisy[i] > 0 {
			total += noisy[i]
		}
	}
	if total <= 0 {
		return (lo + hi) / 2
	}
	var run float64
	for i := lo; i < hi; i++ {
		if noisy[i] > 0 {
			run += noisy[i]
		}
		if run >= total/2 {
			return i + 1
		}
	}
	return (lo + hi) / 2
}

// marginalMedian returns the split offset (1..len-1) halving the positive
// mass of a marginal.
func marginalMedian(marg []float64) int {
	var total float64
	for _, v := range marg {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return len(marg) / 2
	}
	var run float64
	for i, v := range marg {
		if v > 0 {
			run += v
		}
		if run >= total/2 {
			if i+1 >= len(marg) {
				return len(marg) - 1
			}
			return i + 1
		}
	}
	return len(marg) / 2
}
