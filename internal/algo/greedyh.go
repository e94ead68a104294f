package algo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// GreedyH is the workload-aware hierarchical mechanism introduced as the
// second stage of DAWA (Li et al., PVLDB 2014) and evaluated stand-alone by
// the benchmark. It builds a binary hierarchy and tunes the per-level privacy
// budget to the workload: levels whose nodes appear more often in the
// canonical decompositions of workload queries receive more budget. With
// per-level usage weights w_l, minimizing the total workload variance
// sum_l w_l * 2/eps_l^2 subject to sum_l eps_l = eps gives the closed form
// eps_l proportional to w_l^(1/3), which this implementation uses as the
// greedy allocation.
//
// In 2D the domain is linearized along the Hilbert curve (as DAWA does) and
// level weights default to uniform, since rectangles do not map to intervals.
type GreedyH struct {
	// B is the hierarchy branching factor (the published algorithm uses 2).
	B int
}

func init() { Register("GREEDY-H", func() Algorithm { return &GreedyH{B: 2} }) }

// Name implements Algorithm.
func (g *GreedyH) Name() string { return "GREEDY-H" }

// Supports implements Algorithm; GreedyH handles 1D and (via Hilbert) 2D.
func (g *GreedyH) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (g *GreedyH) DataDependent() bool { return false }

// Run implements Algorithm.
func (g *GreedyH) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(g, x, w, eps, rng)
}

// greedyHPlan holds the cached hierarchy, the workload-tuned budget, and (in
// 2D) the Hilbert linearization of the data — everything but the noise.
type greedyHPlan struct {
	flat   *tree.Flat
	data   []float64 // 1D data, or its Hilbert linearization in 2D
	budget []float64
	perm   []int      // 2D only: out[perm[d]] = est[d]
	bufs   *sync.Pool // 2D only: *[]float64 linearized estimate buffers
}

// Plan implements Algorithm. The hierarchy, the canonical workload weights
// (one counting walk per sweep, cached), the cube-root budget allocation and
// the 2D linearization all happen here, once per cell.
func (g *GreedyH) Plan(x *vec.Vector, w *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	b := g.B
	if b < 2 {
		b = 2
	}
	switch x.K() {
	case 1:
		flat, err := tree.SharedInterval(x.N(), b)
		if err != nil {
			return nil, err
		}
		weights := canonicalLevelWeightsCached(x.N(), b, w)
		return &greedyHPlan{
			flat: flat, data: x.Data,
			budget: levelBudgetFromWeights(eps, flat.Height(), weights),
		}, nil
	case 2:
		ny, nx := x.Dims[0], x.Dims[1]
		if nx != ny {
			return nil, fmt.Errorf("greedyh: 2D requires a square grid, got %dx%d", nx, ny)
		}
		lin, perm, err := hilbertLinearizeCached(x.Data, nx)
		if err != nil {
			return nil, err
		}
		flat, err := tree.SharedInterval(len(lin), b)
		if err != nil {
			return nil, err
		}
		p := &greedyHPlan{
			flat: flat, data: lin, perm: perm,
			budget: levelBudgetFromWeights(eps, flat.Height(), nil),
		}
		n := len(lin)
		p.bufs = scratchPool(scratchKey{mech: "GREEDY-H", sizes: [3]int{n}}, func() any { b := make([]float64, n); return &b })
		return p, nil
	default:
		return nil, fmt.Errorf("greedyh: unsupported dimensionality %d", x.K())
	}
}

//dp:hotpath
func (p *greedyHPlan) Execute(m *noise.Meter, out []float64) error {
	if p.perm == nil {
		flatTreeEstimate(p.flat, p.data, p.budget, m, out)
		return m.Err()
	}
	buf := p.bufs.Get().(*[]float64)
	flatTreeEstimate(p.flat, p.data, p.budget, m, *buf)
	for d, src := range p.perm {
		out[src] = (*buf)[d]
	}
	p.bufs.Put(buf)
	return m.Err()
}

// CompositionPlan implements Planner: per-level parallel scopes whose
// weighted budgets sum to eps.
func (g *GreedyH) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}}
}

// levelBudgetFromWeights converts per-level usage weights into a budget
// split with eps_l proportional to w_l^(1/3); levels with zero weight still
// receive a small floor so inference stays well conditioned.
func levelBudgetFromWeights(eps float64, h int, weights []float64) []float64 {
	if len(weights) < h {
		return tree.UniformLevelBudget(eps, h)
	}
	cube := make([]float64, h)
	var total float64
	for l := 0; l < h; l++ {
		w := weights[l]
		if w < 1 {
			w = 1 // floor: keep every level measurable
		}
		cube[l] = math.Cbrt(w)
		total += cube[l]
	}
	if total == 0 {
		return tree.UniformLevelBudget(eps, h)
	}
	out := make([]float64, h)
	for l := range out {
		out[l] = eps * cube[l] / total
	}
	return out
}

// CanonicalLevelWeights counts, per hierarchy level, how many canonical
// nodes the workload's queries use when answered through a b-ary interval
// tree over [0, n). Level 0 is the root. A nil result (for nil workloads or
// non-1D workloads) signals the caller to fall back to uniform allocation.
// The counting walk runs over the shared flattened tree, so no structure is
// built per call.
func CanonicalLevelWeights(n, b int, w *workload.Workload) []float64 {
	if w == nil || len(w.Dims) != 1 || w.Dims[0] != n {
		return nil
	}
	flat, err := tree.SharedInterval(n, b)
	if err != nil {
		return nil
	}
	weights := make([]float64, flat.Height())
	for k := 0; k < w.Size(); k++ {
		lo, hi := w.Range(k)
		flat.AddCanonicalCount(lo, hi, weights)
	}
	return weights
}
