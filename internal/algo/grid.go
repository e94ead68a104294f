package algo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// UGrid is the uniform grid method of Qardaji, Yang and Li (ICDE 2013): it
// partitions the 2D domain into an m x m equi-width grid with
// m = sqrt(N*eps/c) (c = 10), obtains a Laplace count per grid cell with the
// full budget, and assumes uniformity within grid cells. The grid size
// depends on the dataset scale N, which the original algorithm treats as
// public side information; SetScaleEstimator switches to a private estimate.
type UGrid struct {
	// C is the constant in the grid-size rule (paper: 10).
	C float64
	// ScaleRho, when positive, spends this budget fraction estimating N.
	ScaleRho float64
}

func init() { Register("UGRID", func() Algorithm { return &UGrid{C: 10} }) }

// Name implements Algorithm.
func (u *UGrid) Name() string { return "UGRID" }

// Supports implements Algorithm; UGrid is 2D only (Table 1).
func (u *UGrid) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (u *UGrid) DataDependent() bool { return true }

// SetScaleEstimator implements SideInfoUser.
func (u *UGrid) SetScaleEstimator(rho float64) { u.ScaleRho = rho }

// Run implements Algorithm.
func (u *UGrid) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(u, x, w, eps, rng)
}

// ugridPlan: with the scale public (no Rside), the grid layout and every
// cell's exact total are trial-independent, so a trial is one noise draw and
// a uniform spread per grid cell. Under Rside the grid size depends on a
// per-trial noisy scale, so Execute falls back to the full per-trial path.
type ugridPlan struct {
	data     []float64
	nx, ny   int
	eps      float64 // full budget
	epsCells float64 // budget for the cell scope
	c        float64
	scaleRho float64
	scale    float64

	// Precomputed layout (scaleRho == 0 only).
	xb, yb []int
	totals []float64 // exact per-grid-cell totals in measureGrid's cell order
}

// Plan implements Algorithm.
func (u *UGrid) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("ugrid: 2D only, got %dD", x.K())
	}
	c := u.C
	if c <= 0 {
		c = 10
	}
	ny, nx := x.Dims[0], x.Dims[1]
	p := &ugridPlan{data: x.Data, nx: nx, ny: ny, eps: eps, c: c, scaleRho: u.ScaleRho}
	// The grid layout is sized from the dataset scale as declared public
	// side information (the original UGrid treats N as known); ScaleRho > 0
	// switches to a metered per-trial estimate in Execute.
	p.scale = x.Scale() //dp:public Pside declared side information (HayMMCZ16 Principle 7)
	if u.ScaleRho > 0 {
		return p, nil // layout depends on the per-trial noisy scale
	}
	g := gridSize(p.scale, eps, c, minInt(nx, ny))
	p.epsCells = eps
	p.xb = gridBounds(nx, g)
	p.yb = gridBounds(ny, g)
	p.totals = gridTotals(x.Data, nx, 0, 0, p.xb, p.yb)
	return p, nil
}

//dp:hotpath
func (p *ugridPlan) Execute(m *noise.Meter, out []float64) error {
	if p.totals != nil {
		spreadNoisyGrid(m, "cells", p.totals, p.xb, p.yb, p.nx, p.epsCells, out)
		return m.Err()
	}
	// Rside fallback: the grid size is a function of this trial's noisy
	// scale, so the whole layout is per-trial.
	epsLeft := p.eps
	epsScale := p.eps * p.scaleRho
	scale := p.scale + m.Laplace("scale", 1/epsScale, epsScale)
	if scale < 1 {
		scale = 1
	}
	epsLeft -= epsScale
	g := gridSize(scale, epsLeft, p.c, minInt(p.nx, p.ny))
	measureGrid(m, "cells", p.data, p.nx, p.ny, 0, 0, p.nx, p.ny, g, g, epsLeft, out)
	return m.Err()
}

// gridTotals computes the exact total of every grid cell defined by the
// bounds (offset by x0/y0 on the nx-wide grid), iterating cells and summing
// in exactly measureGrid's order so the values match it bit for bit.
func gridTotals(data []float64, nx, x0, y0 int, xb, yb []int) []float64 {
	totals := make([]float64, 0, (len(yb)-1)*(len(xb)-1))
	for yi := 0; yi+1 < len(yb); yi++ {
		for xi := 0; xi+1 < len(xb); xi++ {
			gx0, gx1 := x0+xb[xi], x0+xb[xi+1]
			gy0, gy1 := y0+yb[yi], y0+yb[yi+1]
			var total float64
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					total += data[y*nx+x]
				}
			}
			totals = append(totals, total)
		}
	}
	return totals
}

// spreadNoisyGrid draws one Laplace count per precomputed grid-cell total (in
// the same order measureGrid draws) and spreads each clamped estimate
// uniformly over its cells of out.
func spreadNoisyGrid(m *noise.Meter, label string, totals []float64, xb, yb []int, nx int, eps float64, out []float64) {
	idx := 0
	for yi := 0; yi+1 < len(yb); yi++ {
		for xi := 0; xi+1 < len(xb); xi++ {
			gx0, gx1 := xb[xi], xb[xi+1]
			gy0, gy1 := yb[yi], yb[yi+1]
			est := totals[idx] + m.LaplacePar(label, 1/eps, eps)
			idx++
			if est < 0 {
				est = 0
			}
			per := est / float64((gx1-gx0)*(gy1-gy0))
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					out[y*nx+x] = per
				}
			}
		}
	}
}

// CompositionPlan implements Planner: the optional scale estimate composes
// sequentially with one parallel scope over the disjoint grid cells at the
// remaining budget.
func (u *UGrid) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "cells", Kind: noise.Parallel},
	}
}

// AGrid is the adaptive grid of the same paper: a coarse first-level grid
// (m1 x m1 with m1 = max(10, sqrt(N*eps/c)/2)), then within each coarse cell
// a second-level grid sized from the cell's noisy count
// (m2 = sqrt(n'*eps2/c2), c2 = 5), with the budget split by Rho. Level-two
// counts are reconciled with the level-one count of their parent cell by
// scaling, a lightweight form of the paper's consistency step.
type AGrid struct {
	// C and C2 are the grid-size constants (paper: 10 and 5).
	C, C2 float64
	// Rho is the budget fraction for the first level (paper: 0.5).
	Rho float64
	// ScaleRho, when positive, spends this budget fraction estimating N.
	ScaleRho float64
}

func init() { Register("AGRID", func() Algorithm { return &AGrid{C: 10, C2: 5, Rho: 0.5} }) }

// Name implements Algorithm.
func (a *AGrid) Name() string { return "AGRID" }

// Supports implements Algorithm.
func (a *AGrid) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (a *AGrid) DataDependent() bool { return true }

// SetScaleEstimator implements SideInfoUser.
func (a *AGrid) SetScaleEstimator(rho float64) { a.ScaleRho = rho }

// Run implements Algorithm.
func (a *AGrid) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(a, x, w, eps, rng)
}

// agridPlan caches the coarse layout and its exact cell totals (with public
// scale); the second-level grids are sized from each trial's noisy level-one
// counts, so that stage is inherently per-trial and only its buffers are
// recycled. Under Rside even the coarse layout is per-trial.
type agridPlan struct {
	data          []float64
	nx, ny        int
	eps           float64
	c, c2         float64
	rho, scaleRho float64
	scale         float64

	// Precomputed coarse layout (scaleRho == 0 only).
	eps1, eps2 float64
	xb, yb     []int
	totals     []float64
	bufs       sync.Pool // *agridScratch per-trial working buffers
}

// agridScratch recycles one trial's working buffers: the second-level
// region counts and, under Rside, the per-trial coarse grid boundaries.
type agridScratch struct {
	sub    []float64
	xb, yb []int
}

// Plan implements Algorithm.
func (a *AGrid) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("agrid: 2D only, got %dD", x.K())
	}
	c, c2 := a.C, a.C2
	if c <= 0 {
		c = 10
	}
	if c2 <= 0 {
		c2 = 5
	}
	rho := a.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	ny, nx := x.Dims[0], x.Dims[1]
	p := &agridPlan{
		data: x.Data, nx: nx, ny: ny, eps: eps,
		c: c, c2: c2, rho: rho, scaleRho: a.ScaleRho,
	}
	// The coarse grid is sized from the dataset scale as declared public
	// side information (AGrid's m1 formula); ScaleRho > 0 switches to a
	// metered per-trial estimate in Execute.
	p.scale = x.Scale() //dp:public Pside declared side information (HayMMCZ16 Principle 7)
	if a.ScaleRho > 0 {
		// Rside: the layout is re-derived per trial, so the scratch must
		// cover the worst case — one coarse cell spanning the whole domain
		// and boundary slices at the maximum grid side.
		p.bufs.New = func() any {
			side := minInt(nx, ny) + 1
			return &agridScratch{
				sub: make([]float64, nx*ny),
				xb:  make([]int, side),
				yb:  make([]int, side),
			}
		}
		return p, nil
	}
	p.eps1 = rho * eps
	p.eps2 = (1 - rho) * eps
	m1 := int(math.Max(10, math.Sqrt(p.scale*eps/c)/2))
	m1 = clampInt(m1, 1, minInt(nx, ny))
	p.xb = gridBounds(nx, m1)
	p.yb = gridBounds(ny, m1)
	p.totals = gridTotals(x.Data, nx, 0, 0, p.xb, p.yb)
	maxArea := 0
	for yi := 0; yi+1 < len(p.yb); yi++ {
		for xi := 0; xi+1 < len(p.xb); xi++ {
			if area := (p.xb[xi+1] - p.xb[xi]) * (p.yb[yi+1] - p.yb[yi]); area > maxArea {
				maxArea = area
			}
		}
	}
	p.bufs.New = func() any { return &agridScratch{sub: make([]float64, maxArea)} }
	return p, nil
}

//dp:hotpath
func (p *agridPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*agridScratch)
	defer p.bufs.Put(sc)
	epsLeft, scale := p.eps, p.scale
	eps1, eps2 := p.eps1, p.eps2
	xb, yb, totals := p.xb, p.yb, p.totals
	if p.scaleRho > 0 {
		// Rside fallback: the coarse layout follows this trial's noisy scale.
		epsScale := p.eps * p.scaleRho
		scale += m.Laplace("scale", 1/epsScale, epsScale)
		if scale < 1 {
			scale = 1
		}
		epsLeft -= epsScale
		eps1 = p.rho * epsLeft
		eps2 = (1 - p.rho) * epsLeft
		m1 := int(math.Max(10, math.Sqrt(scale*epsLeft/p.c)/2))
		m1 = clampInt(m1, 1, minInt(p.nx, p.ny))
		xb = gridBoundsInto(sc.xb, p.nx, m1)
		yb = gridBoundsInto(sc.yb, p.ny, m1)
		totals = nil
	}
	sub := sc.sub
	idx := 0
	for yi := 0; yi+1 < len(yb); yi++ {
		for xi := 0; xi+1 < len(xb); xi++ {
			x0, x1 := xb[xi], xb[xi+1]
			y0, y1 := yb[yi], yb[yi+1]
			var trueTotal float64
			if totals != nil {
				trueTotal = totals[idx]
				idx++
			} else {
				for y := y0; y < y1; y++ {
					for xc := x0; xc < x1; xc++ {
						trueTotal += p.data[y*p.nx+xc]
					}
				}
			}
			level1 := trueTotal + m.LaplacePar("level1", 1/eps1, eps1)
			if level1 < 0 {
				level1 = 0
			}
			// Second-level grid sized from the noisy count.
			m2 := int(math.Sqrt(level1 * eps2 / p.c2))
			m2 = clampInt(m2, 1, minInt(x1-x0, y1-y0))
			area := (x1 - x0) * (y1 - y0)
			region := sub[:area]
			measureRegion(m, "level2", p.data, p.nx, x0, y0, x1, y1, m2, m2, eps2, region)
			// Consistency: rescale the level-2 cells to match level 1.
			var subTotal float64
			for _, v := range region {
				subTotal += v
			}
			if subTotal > 0 && level1 > 0 {
				adj := level1 / subTotal
				for i := range region {
					region[i] *= adj
				}
			} else if subTotal == 0 && level1 > 0 {
				per := level1 / float64(len(region))
				for i := range region {
					region[i] = per
				}
			}
			for y := y0; y < y1; y++ {
				copy(out[y*p.nx+x0:y*p.nx+x1], region[(y-y0)*(x1-x0):(y-y0+1)*(x1-x0)])
			}
		}
	}
	return m.Err()
}

// CompositionPlan implements Planner: the optional scale estimate composes
// sequentially; the coarse cells are disjoint (one "level1" scope at
// rho*epsLeft) and all second-level sub-cells across all coarse cells are
// likewise disjoint (one "level2" scope at the rest).
func (a *AGrid) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "level1", Kind: noise.Parallel},
		{Label: "level2", Kind: noise.Parallel},
	}
}

// gridSize computes the UGrid rule m = sqrt(N*eps/c) clamped to [1, side].
func gridSize(scale, eps, c float64, side int) int {
	m := int(math.Sqrt(scale * eps / c))
	return clampInt(m, 1, side)
}

// gridBounds splits [0, n) into m nearly equal segments, returning the m+1
// boundaries.
func gridBounds(n, m int) []int {
	if m > n {
		m = n
	}
	if m < 1 {
		m = 1
	}
	return gridBoundsInto(make([]int, m+1), n, m)
}

// gridBoundsInto is gridBounds writing into dst's backing array, whose
// capacity must be at least m+1: the Rside hot path re-derives the coarse
// layout per trial and must not allocate.
func gridBoundsInto(dst []int, n, m int) []int {
	if m > n {
		m = n
	}
	if m < 1 {
		m = 1
	}
	dst = dst[:m+1]
	for i := 0; i <= m; i++ {
		dst[i] = n * i / m
	}
	return dst
}

// measureGrid measures an mx x my equi-width grid over the whole region with
// Laplace noise and spreads each count uniformly into out (row-major nx
// grid). Grid cells are disjoint, so the per-cell spends form one parallel
// scope under label.
func measureGrid(m *noise.Meter, label string, data []float64, nx, ny, x0, y0, x1, y1, mx, my int, eps float64, out []float64) {
	xb := gridBounds(x1-x0, mx)
	yb := gridBounds(y1-y0, my)
	for yi := 0; yi+1 < len(yb); yi++ {
		for xi := 0; xi+1 < len(xb); xi++ {
			gx0, gx1 := x0+xb[xi], x0+xb[xi+1]
			gy0, gy1 := y0+yb[yi], y0+yb[yi+1]
			var total float64
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					total += data[y*nx+x]
				}
			}
			est := total + m.LaplacePar(label, 1/eps, eps)
			if est < 0 {
				est = 0
			}
			per := est / float64((gx1-gx0)*(gy1-gy0))
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					out[y*nx+x] = per
				}
			}
		}
	}
}

// measureRegion is measureGrid writing into a region-local buffer sub of
// width x1-x0.
func measureRegion(m *noise.Meter, label string, data []float64, nx, x0, y0, x1, y1, mx, my int, eps float64, sub []float64) {
	w := x1 - x0
	xb := gridBounds(w, mx)
	yb := gridBounds(y1-y0, my)
	for yi := 0; yi+1 < len(yb); yi++ {
		for xi := 0; xi+1 < len(xb); xi++ {
			gx0, gx1 := xb[xi], xb[xi+1]
			gy0, gy1 := yb[yi], yb[yi+1]
			var total float64
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					total += data[(y0+y)*nx+x0+x]
				}
			}
			est := total + m.LaplacePar(label, 1/eps, eps)
			if est < 0 {
				est = 0
			}
			per := est / float64((gx1-gx0)*(gy1-gy0))
			for y := gy0; y < gy1; y++ {
				for x := gx0; x < gx1; x++ {
					sub[y*w+x] = per
				}
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
