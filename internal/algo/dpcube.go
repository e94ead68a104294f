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
	dims       []int
	n          int
	minCells   int
	eps1, eps2 float64
	bufs       sync.Pool // *dpcubeScratch
}

// dpcubeScratch is one trial's noisy histogram plus, in 1D, the partition
// boundaries (1D kd partitions are contiguous intervals, so boundaries
// replace the per-partition cell lists without changing content or order).
type dpcubeScratch struct {
	noisy  []float64
	bounds []int
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
	p := &dpcubePlan{
		data: x.Data, dims: x.Dims, n: x.N(), minCells: minCells,
		eps1: rho * eps, eps2: (1 - rho) * eps,
	}
	p.bufs.New = func() any {
		return &dpcubeScratch{noisy: make([]float64, p.n), bounds: make([]int, 0, 64)}
	}
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
	if len(p.dims) == 1 {
		bounds := append(sc.bounds[:0], 0)
		bounds = kdSplit1DBounds(noisy, 0, p.n, p.minCells, 1/p.eps1, bounds)
		sc.bounds = bounds
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			var trueTotal float64
			for cell := lo; cell < hi; cell++ {
				trueTotal += p.data[cell]
			}
			est := trueTotal + m.LaplacePar("parts", 1/p.eps2, p.eps2)
			size := float64(hi - lo)
			partPerCell := est / size
			partVar := 2 / (p.eps2 * p.eps2 * size * size)
			wPart := cellVar / (cellVar + partVar)
			for cell := lo; cell < hi; cell++ {
				out[cell] = wPart*partPerCell + (1-wPart)*noisy[cell]
			}
		}
		return m.Err()
	}

	parts := kdSplit2D(noisy, p.dims[1], kdRect{0, 0, p.dims[1], p.dims[0]}, p.minCells, 1/p.eps1)
	for _, part := range parts {
		var trueTotal float64
		for _, cell := range part {
			trueTotal += p.data[cell]
		}
		est := trueTotal + m.LaplacePar("parts", 1/p.eps2, p.eps2)
		size := float64(len(part))
		partPerCell := est / size
		partVar := 2 / (p.eps2 * p.eps2 * size * size)
		wPart := cellVar / (cellVar + partVar)
		for _, cell := range part {
			out[cell] = wPart*partPerCell + (1-wPart)*noisy[cell]
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

// kdSplit1DBounds recursively partitions [lo, hi) of the noisy histogram,
// splitting at the mass median while the interval looks non-uniform relative
// to the noise level. Partitions are contiguous, so they are returned as
// ascending boundary offsets appended to bounds (the caller seeds it with
// lo); the leaf order matches the left-to-right recursion.
func kdSplit1DBounds(noisy []float64, lo, hi, minCells int, noiseUnit float64, bounds []int) []int {
	if hi-lo <= 1 || stopSplitting(noisy[lo:hi], minCells, noiseUnit) {
		return append(bounds, hi)
	}
	mid := massMedian(noisy, lo, hi)
	if mid <= lo || mid >= hi {
		mid = (lo + hi) / 2
	}
	bounds = kdSplit1DBounds(noisy, lo, mid, minCells, noiseUnit, bounds)
	return kdSplit1DBounds(noisy, mid, hi, minCells, noiseUnit, bounds)
}

type kdRect struct{ x0, y0, x1, y1 int }

func (r kdRect) cells(nx int) []int {
	out := make([]int, 0, (r.x1-r.x0)*(r.y1-r.y0))
	for y := r.y0; y < r.y1; y++ {
		for x := r.x0; x < r.x1; x++ {
			out = append(out, y*nx+x)
		}
	}
	return out
}

func kdSplit2D(noisy []float64, nx int, r kdRect, minCells int, noiseUnit float64) [][]int {
	cells := r.cells(nx)
	if len(cells) <= 1 {
		return [][]int{cells}
	}
	vals := make([]float64, len(cells))
	for i, c := range cells {
		vals[i] = noisy[c]
	}
	if stopSplitting(vals, minCells, noiseUnit) {
		return [][]int{cells}
	}
	// Split the wider dimension at its marginal-mass median.
	w, h := r.x1-r.x0, r.y1-r.y0
	if w >= h && w > 1 {
		marg := make([]float64, w)
		for y := r.y0; y < r.y1; y++ {
			for x := r.x0; x < r.x1; x++ {
				marg[x-r.x0] += noisy[y*nx+x]
			}
		}
		cut := r.x0 + marginalMedian(marg)
		if cut <= r.x0 || cut >= r.x1 {
			cut = (r.x0 + r.x1) / 2
		}
		return append(kdSplit2D(noisy, nx, kdRect{r.x0, r.y0, cut, r.y1}, minCells, noiseUnit),
			kdSplit2D(noisy, nx, kdRect{cut, r.y0, r.x1, r.y1}, minCells, noiseUnit)...)
	}
	if h > 1 {
		marg := make([]float64, h)
		for y := r.y0; y < r.y1; y++ {
			for x := r.x0; x < r.x1; x++ {
				marg[y-r.y0] += noisy[y*nx+x]
			}
		}
		cut := r.y0 + marginalMedian(marg)
		if cut <= r.y0 || cut >= r.y1 {
			cut = (r.y0 + r.y1) / 2
		}
		return append(kdSplit2D(noisy, nx, kdRect{r.x0, r.y0, r.x1, cut}, minCells, noiseUnit),
			kdSplit2D(noisy, nx, kdRect{r.x0, cut, r.x1, r.y1}, minCells, noiseUnit)...)
	}
	return [][]int{cells}
}

// stopSplitting reports whether a partition should become a leaf: its value
// spread is small relative to the Laplace noise (so splitting cannot pay
// off), with a stricter bar below the MinCells size so small partitions only
// keep splitting when the non-uniformity clearly exceeds the noise floor. As
// the budget grows the noise unit vanishes and any real non-uniformity keeps
// splitting, which is what makes DPCube consistent (Theorem 3).
func stopSplitting(vals []float64, minCells int, noiseUnit float64) bool {
	if len(vals) <= 1 {
		return true
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	threshold := 4 * noiseUnit
	if len(vals) <= minCells {
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
