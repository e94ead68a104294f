package algo

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// AHP is the adaptive histogram publication algorithm of Zhang et al.
// (ICDM 2014). Stage one spends a rho fraction of the budget on noisy cell
// counts, zeroes counts below a threshold controlled by eta, sorts the
// remainder and greedily clusters near-equal counts. Stage two measures each
// cluster total with the remaining budget (clusters are disjoint so the
// sensitivity is 1) and spreads it uniformly within the cluster.
//
// Rho and eta are the free parameters the paper flags (Table 1): "AHP" uses
// the fixed setting from the original authors, while "AHP*" uses the values
// produced by the benchmark's free-parameter trainer as a function of the
// eps*scale signal (Section 6.4).
type AHP struct {
	// Rho is the budget fraction for stage one (cluster selection).
	Rho float64
	// Eta scales the zeroing threshold eta*log(n)/(rho*eps).
	Eta float64
	// Trained, when non-nil, overrides (Rho, Eta) per eps*scale signal.
	Trained func(product float64) (rho, eta float64)

	starred bool
}

func init() {
	Register("AHP", func() Algorithm { return &AHP{Rho: 0.5, Eta: 0.35} })
	Register("AHP*", func() Algorithm { return &AHP{Trained: DefaultAHPProfile, starred: true} })
}

// DefaultAHPProfile is the shipped trained parameter profile for AHP*: at
// weak signal clustering matters and stage one earns more budget; at strong
// signal the histogram is nearly exact and a light stage one with aggressive
// thresholding wins. Produced by the core.Trainer on synthetic power-law and
// normal shapes.
func DefaultAHPProfile(product float64) (rho, eta float64) {
	switch {
	case product < 1e3:
		return 0.6, 0.5
	case product < 1e5:
		return 0.5, 0.35
	case product < 1e7:
		return 0.3, 0.2
	default:
		return 0.15, 0.1
	}
}

// Name implements Algorithm.
func (a *AHP) Name() string {
	if a.starred {
		return "AHP*"
	}
	return "AHP"
}

// Supports implements Algorithm.
func (a *AHP) Supports(k int) bool { return k >= 1 }

// DataDependent implements Algorithm.
func (a *AHP) DataDependent() bool { return true }

// Run implements Algorithm.
func (a *AHP) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(a, x, w, eps, rng)
}

// ahpPlan resolves the (possibly trained) parameters once; the clustering
// itself runs on fresh noise every trial, through pooled scratch.
type ahpPlan struct {
	data       []float64
	n          int
	eps1, eps2 float64
	threshold  float64
	bufs       *sync.Pool // *ahpScratch
}

// ahpScratch is one trial's stage-one state: the noisy histogram, the sort
// permutation, and the cluster boundaries over it.
type ahpScratch struct {
	noisy  []float64
	order  []int
	bounds []int
}

// Plan implements Algorithm.
func (a *AHP) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	rho, eta := a.Rho, a.Eta
	if a.Trained != nil {
		// The trained profile is a function of the signal strength
		// eps*scale only — the scale enters as declared public side
		// information, never the cell counts.
		rho, eta = a.Trained(eps * x.Scale()) //dp:public Pside declared side information (HayMMCZ16 Principle 7)
	}
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	n := x.N()
	eps1 := rho * eps
	p := &ahpPlan{
		data: x.Data, n: n, eps1: eps1, eps2: (1 - rho) * eps,
		threshold: eta * math.Log(float64(n)) / eps1,
	}
	p.bufs = scratchPool(scratchKey{mech: "AHP", sizes: [3]int{n}}, func() any {
		return &ahpScratch{noisy: make([]float64, n), order: make([]int, n), bounds: make([]int, 0, 64)}
	})
	return p, nil
}

//dp:hotpath
func (p *ahpPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*ahpScratch)
	defer p.bufs.Put(sc)

	// Stage one: noisy counts, threshold, sort, greedy cluster.
	noisy := m.LaplaceVecInto("counts", sc.noisy, p.data, 1/p.eps1, p.eps1)
	for i, v := range noisy {
		if v < p.threshold {
			noisy[i] = 0
		}
	}
	order := sc.order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return noisy[order[a]] < noisy[order[b]] })

	// Greedy clustering over the sorted counts: extend the current cluster
	// while the approximation error of forcing uniformity stays below the
	// marginal Laplace error of opening a new cluster (expected absolute
	// noise 1/eps2 per cluster count). Clusters are consecutive runs of the
	// sort order, so boundaries over it represent them without allocating.
	bounds := greedyClusterBounds(noisy, order, 1/p.eps2, sc.bounds[:0])
	sc.bounds = bounds

	// Stage two: fresh noisy total per cluster, uniform within. Clusters are
	// disjoint, so the per-cluster spends compose in parallel to eps2.
	for b := 0; b+1 < len(bounds); b++ {
		cl := order[bounds[b]:bounds[b+1]]
		var trueTotal float64
		for _, cell := range cl {
			trueTotal += p.data[cell]
		}
		est := trueTotal + m.LaplacePar("clusters", 1/p.eps2, p.eps2)
		if est < 0 {
			est = 0
		}
		per := est / float64(len(cl))
		for _, cell := range cl {
			out[cell] = per
		}
	}
	return m.Err()
}

// CompositionPlan implements Planner: stage one is one vector query at
// rho*eps (the histogram has L1 sensitivity 1), stage two measures disjoint
// clusters in a parallel scope at the remaining (1-rho)*eps.
func (a *AHP) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "counts", Kind: noise.Sequential},
		{Label: "clusters", Kind: noise.Parallel},
	}
}

// greedyClusterBounds walks cells in sorted order of their stage-one counts
// and groups them while the within-cluster spread stays below 2*noiseUnit,
// mirroring the greedy strategy the AHP authors use in their experiments.
// Clusters are returned as boundary offsets into order (first 0, last
// len(order)), appended to bounds.
func greedyClusterBounds(sortedVals []float64, order []int, noiseUnit float64, bounds []int) []int {
	if len(order) == 0 {
		return bounds
	}
	bounds = append(bounds, 0)
	curMin, curMax := sortedVals[order[0]], sortedVals[order[0]]
	for i, cell := range order[1:] {
		v := sortedVals[cell]
		lo, hi := curMin, curMax
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if hi-lo <= 2*noiseUnit {
			curMin, curMax = lo, hi
			continue
		}
		bounds = append(bounds, i+1)
		curMin, curMax = v, v
	}
	return append(bounds, len(order))
}
