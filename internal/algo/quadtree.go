package algo

import (
	"fmt"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// QuadTree is the fixed-structure spatial decomposition of Cormode et al.
// (ICDE 2012): a quadtree of at most MaxHeight levels over the 2D grid,
// Laplace measurements on every node with geometric budget allocation, and
// consistency post-processing. Because the structure is fixed, no budget is
// spent selecting it (rho = 0). When the height cap truncates leaves above
// single cells, the uniformity assumption introduces bias, which is what
// makes QuadTree inconsistent on large domains (Theorem 5).
type QuadTree struct {
	// MaxHeight caps the number of tree levels (paper's c = 10).
	MaxHeight int
}

func init() { Register("QUADTREE", func() Algorithm { return &QuadTree{MaxHeight: 10} }) }

// Name implements Algorithm.
func (q *QuadTree) Name() string { return "QUADTREE" }

// Supports implements Algorithm; QuadTree is 2D only (Table 1).
func (q *QuadTree) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (q *QuadTree) DataDependent() bool { return true }

// Run implements Algorithm.
func (q *QuadTree) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(q, x, w, eps, rng)
}

// Plan implements Algorithm: the quadtree layout is fixed per (grid, height),
// so the plan is a cached flat tree with the geometric budget.
func (q *QuadTree) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("quadtree: 2D only, got %dD", x.K())
	}
	h := q.MaxHeight
	if h < 1 {
		h = 10
	}
	flat, err := tree.SharedQuad(x.Dims[1], x.Dims[0], h)
	if err != nil {
		return nil, err
	}
	return newTreePlan(flat, x.Data, tree.GeometricLevelBudget(eps, flat.Height())), nil
}

// CompositionPlan implements Planner: geometric per-level budgets summing to
// eps, each level a parallel scope over its disjoint nodes.
func (q *QuadTree) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}}
}

// HybridTree is the kd-hybrid decomposition of Cormode et al. (ICDE 2012):
// the top KDLevels of the tree are chosen data-dependently by splitting at
// noisy medians (spending a small fraction of the budget), and a fixed
// quadtree fills in below until MaxHeight levels; node counts are then
// measured geometrically and made consistent, as with QuadTree.
type HybridTree struct {
	// KDLevels is the number of data-dependent top levels.
	KDLevels int
	// MaxHeight caps the total number of levels.
	MaxHeight int
	// StructRho is the budget fraction spent choosing the kd splits.
	StructRho float64
}

func init() {
	Register("HYBRIDTREE", func() Algorithm {
		return &HybridTree{KDLevels: 3, MaxHeight: 10, StructRho: 0.1}
	})
}

// Name implements Algorithm.
func (t *HybridTree) Name() string { return "HYBRIDTREE" }

// Supports implements Algorithm.
func (t *HybridTree) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (t *HybridTree) DataDependent() bool { return true }

// Run implements Algorithm.
func (t *HybridTree) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(t, x, w, eps, rng)
}

// hybridPlan carries the resolved parameters and a pool of per-trial
// arenas; the kd structure itself is selected from fresh noise inside every
// Execute, as the mechanism requires.
type hybridPlan struct {
	data               []float64
	nx, ny             int
	kd, h              int
	perLevel, epsCount float64
	bufs               sync.Pool // *hybridScratch
}

// hybridScratch is one trial's rebuildable state: the pre-order kd cut list,
// the marginal buffer, and the tree arena the kd-then-quad hierarchy is laid
// into, with its scratch.
type hybridScratch struct {
	cuts  []int
	marg  []float64
	ftree tree.Flat
	fsc   *tree.Scratch
}

// Plan implements Algorithm. HybridTree's upper levels are data-dependent
// (noisy-median splits), so only the parameter resolution and budget split
// are hoisted; each trial rebuilds and measures its own tree.
func (t *HybridTree) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("hybridtree: 2D only, got %dD", x.K())
	}
	kd := t.KDLevels
	if kd < 0 {
		kd = 3
	}
	h := t.MaxHeight
	if h < kd+1 {
		h = kd + 1
	}
	rho := t.StructRho
	if rho <= 0 || rho >= 1 {
		rho = 0.1
	}
	epsStruct := rho * eps
	epsCount := (1 - rho) * eps
	if kd == 0 {
		// Budget fix: with no data-dependent levels there is no structure to
		// select, so the struct allocation would be silently wasted — give
		// the whole budget to the counts instead.
		epsStruct, epsCount = 0, eps
	}
	p := &hybridPlan{
		data: x.Data, nx: x.Dims[1], ny: x.Dims[0], kd: kd, h: h,
		perLevel: epsStruct / float64(maxInt(kd, 1)), epsCount: epsCount,
	}
	side := maxInt(p.nx, p.ny)
	p.bufs.New = func() any {
		return &hybridScratch{marg: make([]float64, side), fsc: tree.NewScratch()}
	}
	return p, nil
}

//dp:hotpath
func (p *hybridPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*hybridScratch)
	defer p.bufs.Put(sc)

	// Noisy marginals drive the kd splits; each level of splits touches
	// disjoint regions so the levels share epsStruct evenly.
	sc.cuts = sc.cuts[:0]
	p.kdCuts(sc, tree.Rect{X1: p.nx, Y1: p.ny}, p.kd, p.h, p.perLevel, m)
	if err := sc.ftree.RebuildKD(p.nx, p.ny, p.h, sc.cuts); err != nil {
		return err
	}
	// The pooled tree scratch is pinned to a local for the whole
	// compute→measure→infer sequence: the raw node sums written by
	// ComputeSums only ever leave it through MeasureInto's metered draws.
	fsc := sc.fsc
	sc.ftree.ComputeSums(p.data, fsc)
	sc.ftree.MeasureInto(m, fsc, tree.GeometricLevelBudget(p.epsCount, sc.ftree.Height()))
	sc.ftree.InferInto(fsc, out)
	return m.Err()
}

// CompositionPlan implements Planner: each kd level's marginals run over
// disjoint regions (one parallel scope of epsStruct/kd per level, labels
// "kd<d>"), then the fixed-structure counts follow QuadTree's geometric
// per-level scopes at the remaining budget.
func (t *HybridTree) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "kd*", Kind: noise.Parallel},
		{Label: "level*", Kind: noise.Parallel},
	}
}

// kdCuts chooses kdLeft data-dependent levels over r, splitting the longer
// side (x on a tie) at a noisy mass median, and appends the cuts to
// sc.cuts in the pre-order tree.Flat.RebuildKD reads (a column as c, a row
// as -c): a region that stops splitting appends 0 and gets a fixed quadtree
// of the remaining height.
// The current kd depth is p.kd-kdLeft. When a branch bottoms out early its
// remaining per-level allocations are charged as forfeits, keeping every kd
// scope at exactly epsLevel even if no region at that depth draws.
//
// Sibling subtrees split disjoint regions, so their equal charges share the
// per-level parallel scopes rather than summing.
//
//dp:spends par float64(kdLeft) * epsLevel
func (p *hybridPlan) kdCuts(sc *hybridScratch, r tree.Rect, kdLeft, heightLeft int, epsLevel float64, m *noise.Meter) {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if kdLeft == 0 || heightLeft <= 1 || (w == 1 && h == 1) {
		for i := 0; i < kdLeft; i++ {
			m.ChargePar(idxLabel(kdLabels, p.kd-kdLeft+i), epsLevel)
		}
		sc.cuts = append(sc.cuts, 0)
		return
	}
	overX := w >= h
	lo, hi := r.Y0, r.Y1
	if overX {
		lo, hi = r.X0, r.X1
	}
	marg := p.noisyMarginal(sc, r, overX, epsLevel, idxLabel(kdLabels, p.kd-kdLeft), m)
	cut := lo + marginalMedian(marg)
	if cut <= lo || cut >= hi {
		cut = (lo + hi) / 2
	}
	a, b := r, r
	if overX {
		a.X1, b.X0 = cut, cut
		sc.cuts = append(sc.cuts, cut)
	} else {
		a.Y1, b.Y0 = cut, cut
		sc.cuts = append(sc.cuts, -cut)
	}
	p.kdCuts(sc, a, kdLeft-1, heightLeft-1, epsLevel, m)
	p.kdCuts(sc, b, kdLeft-1, heightLeft-1, epsLevel, m)
}

// noisyMarginal returns the Laplace-noised marginal of the region along x
// (overX true) or y, in the trial's marginal buffer. One marginal is a
// vector query of sensitivity 1 over the region, and the regions sharing a
// kd level are disjoint, so all of a level's per-bin draws form one
// parallel scope of eps.
func (p *hybridPlan) noisyMarginal(sc *hybridScratch, r tree.Rect, overX bool, eps float64, label string, m *noise.Meter) []float64 {
	marg := sc.marg[:r.Y1-r.Y0]
	if overX {
		marg = sc.marg[:r.X1-r.X0]
	}
	clear(marg)
	for y := r.Y0; y < r.Y1; y++ {
		for i, v := range p.data[y*p.nx+r.X0 : y*p.nx+r.X1] {
			if overX {
				marg[i] += v
			} else {
				marg[y-r.Y0] += v
			}
		}
	}
	// One parallel scope for the whole marginal: the bins partition the
	// region, so the vectorized parallel draw charges eps once instead of
	// recording a ledger spend per bin.
	return m.LaplaceVecParInto(label, marg, marg, 1/eps, eps)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
