package algo

import (
	"fmt"
	"math"
	"math/rand"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// H is the hierarchical mechanism of Hay et al. (PVLDB 2010): a binary tree
// of interval counts over the 1D domain, uniform budget allocation across
// levels, Laplace noise on every node, and weighted least-squares consistency
// inference ("boosting") to produce the final cell estimates.
type H struct {
	// B is the branching factor; the published algorithm fixes b = 2.
	B int
}

func init() { Register("H", func() Algorithm { return &H{B: 2} }) }

// Name implements Algorithm.
func (h *H) Name() string { return "H" }

// Supports implements Algorithm; H is 1D only (Table 1).
func (h *H) Supports(k int) bool { return k == 1 }

// DataDependent implements Algorithm.
func (h *H) DataDependent() bool { return false }

// Run implements Algorithm.
func (h *H) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(h, x, w, eps, rng)
}

// treePlan is the shared plan of every fixed-structure hierarchical
// mechanism (H, Hb, QuadTree): a cached flat tree plus a per-level budget; a
// trial is sums + noise draws + inference through pooled scratch.
type treePlan struct {
	flat   *tree.Flat
	data   []float64
	budget []float64
}

//dp:hotpath
func (p *treePlan) Execute(m *noise.Meter, out []float64) error {
	flatTreeEstimate(p.flat, p.data, p.budget, m, out)
	return m.Err()
}

// Plan implements Algorithm.
func (h *H) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 1 {
		return nil, fmt.Errorf("h: 1D only, got %dD", x.K())
	}
	b := h.B
	if b < 2 {
		b = 2
	}
	flat, err := tree.SharedInterval(x.N(), b)
	if err != nil {
		return nil, err
	}
	return newTreePlan(flat, x.Data, tree.UniformLevelBudget(eps, flat.Height())), nil
}

// CompositionPlan implements Planner: every level of the hierarchy is a
// parallel scope (its nodes partition the domain), and the uniform per-level
// budgets sum to eps.
func (h *H) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}}
}

// Hb is the hierarchical mechanism of Qardaji et al. (PVLDB 2013), which
// chooses the branching factor that minimizes the average variance of range
// queries answered through the tree and then proceeds as H does. For 2D it
// builds a grid hierarchy splitting both dimensions by b at every level.
type Hb struct{}

func init() { Register("HB", func() Algorithm { return Hb{} }) }

// Name implements Algorithm.
func (Hb) Name() string { return "HB" }

// Supports implements Algorithm.
func (Hb) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (Hb) DataDependent() bool { return false }

// Run implements Algorithm.
func (h Hb) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(h, x, w, eps, rng)
}

// Plan implements Algorithm: the branching-factor search and the hierarchy
// are both cached — Hb's whole structural cost is paid once per shape.
func (Hb) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	var flat *tree.Flat
	var err error
	switch x.K() {
	case 1:
		n := x.N()
		flat, err = tree.SharedInterval(n, optimalBranchingCached(n, 1))
	case 2:
		ny, nx := x.Dims[0], x.Dims[1]
		side := nx
		if ny > side {
			side = ny
		}
		flat, err = tree.SharedGrid(nx, ny, optimalBranchingCached(side, 2))
	default:
		return nil, fmt.Errorf("hb: unsupported dimensionality %d", x.K())
	}
	if err != nil {
		return nil, err
	}
	return newTreePlan(flat, x.Data, tree.UniformLevelBudget(eps, flat.Height())), nil
}

// CompositionPlan implements Planner; the budget structure is H's (uniform
// per-level parallel scopes summing to eps) at the variance-optimal
// branching factor.
func (Hb) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}}
}

// OptimalBranching returns the branching factor minimizing Qardaji et al.'s
// estimate of average range-query variance for a hierarchy over a domain of
// size n per dimension in k dimensions: with uniform budget over h =
// ceil(log_b n) + 1 levels, per-node variance grows as h^2 and a random range
// decomposes into about ((b-1)h)^k nodes, so the objective is
// (b-1)^k * h^(k+2).
func OptimalBranching(n, k int) int {
	if n <= 2 {
		return 2
	}
	bestB, bestCost := 2, math.Inf(1)
	for b := 2; b <= n; b++ {
		h := float64(heightFor(n, b))
		cost := math.Pow(float64(b-1), float64(k)) * math.Pow(h, float64(k+2))
		if cost < bestCost {
			bestCost = cost
			bestB = b
		}
	}
	return bestB
}

// heightFor returns the number of levels of a b-ary hierarchy over n leaves
// (including both the root and leaf levels).
func heightFor(n, b int) int {
	h := 1
	for span := 1; span < n; span *= b {
		h++
	}
	return h
}
