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

// PHP is the private histogram-publication algorithm of Acs, Castelluccia
// and Chen (ICDM 2012). It builds a partition by recursively bisecting
// intervals: each bisection point is chosen by the exponential mechanism
// with a score equal to the reduction in expected absolute error, and the
// recursion depth is capped at log2(n) rounds (which is what makes PHP
// inconsistent — Theorem 6 of the benchmark paper). Bucket counts are then
// measured with the remaining budget and spread uniformly.
type PHP struct {
	// Rho is the budget fraction for partition selection (paper: 0.5).
	Rho float64
}

func init() { Register("PHP", func() Algorithm { return &PHP{Rho: 0.5} }) }

// Name implements Algorithm.
func (p *PHP) Name() string { return "PHP" }

// Supports implements Algorithm; PHP is 1D only (Table 1).
func (p *PHP) Supports(k int) bool { return k == 1 }

// DataDependent implements Algorithm.
func (p *PHP) DataDependent() bool { return true }

// Run implements Algorithm.
func (p *PHP) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(p, x, w, eps, rng)
}

// phpInterval is one partition interval [lo, hi).
type phpInterval struct{ lo, hi int }

// phpScratch recycles one trial's interval worklists, split scores and
// exponential-mechanism weights.
type phpScratch struct {
	parts, next    []phpInterval
	scores, expBuf []float64
}

// phpPlan hoists the prefix sums (the only data summary the bisection
// scores need); the partition itself is re-selected from fresh noise every
// trial.
type phpPlan struct {
	prefix     []float64
	n          int
	eps1, eps2 float64
	maxIter    int
	epsPerIter float64
	bufs       *sync.Pool // *phpScratch
}

// Plan implements Algorithm.
func (p *PHP) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 1 {
		return nil, fmt.Errorf("php: 1D only, got %dD", x.K())
	}
	rho := p.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	n := x.N()
	eps1 := rho * eps
	maxIter := log2Ceil(n)
	if maxIter < 1 {
		maxIter = 1
	}
	pl := &phpPlan{
		prefix: prefixSums(x.Data), n: n,
		eps1: eps1, eps2: (1 - rho) * eps,
		maxIter: maxIter, epsPerIter: eps1 / float64(maxIter),
		bufs: scratchPool(scratchKey{mech: "PHP", sizes: [3]int{n}}, func() any {
			return &phpScratch{scores: make([]float64, n), expBuf: make([]float64, n)}
		}),
	}
	return pl, nil
}

//dp:hotpath
func (p *phpPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*phpScratch)
	defer p.bufs.Put(sc)
	sum := func(lo, hi int) float64 { return p.prefix[hi] - p.prefix[lo] } // [lo,hi)

	// Each iteration bisects every interval still worth splitting. The
	// score of split point m for interval [lo,hi) is the drop in uniformity
	// cost: cost(lo,hi) - cost(lo,m) - cost(m,hi), where the cost proxy is
	// |total - width*avg_outside|; following Acs et al. we use the absolute
	// difference between the two halves' totals normalized by width, whose
	// per-record sensitivity is at most 1.
	parts := append(sc.parts[:0], phpInterval{0, p.n})
	next := sc.next[:0]
	for iter := 0; iter < p.maxIter; iter++ {
		next = next[:0]
		label := idxLabel(splitLabels, iter)
		split := false
		for _, iv := range parts {
			if iv.hi-iv.lo <= 1 {
				next = append(next, iv)
				continue
			}
			scores := sc.scores[:0]
			for mid := iv.lo + 1; mid < iv.hi; mid++ {
				left := sum(iv.lo, mid)
				right := sum(mid, iv.hi)
				wl, wr := float64(mid-iv.lo), float64(iv.hi-mid)
				// Balance of per-cell averages; rewards splits that separate
				// regions of different density. math.Abs is a branchless
				// intrinsic and bit-identical to the old helper here (the
				// only divergence, -0 vs +0, is erased by exp in the
				// mechanism), so the legacy stream is unchanged.
				scores = append(scores, math.Abs(left/wl-right/wr)*minf(wl, wr))
			}
			pick := m.ExpMechBufPar(label, scores, 1, p.epsPerIter, sc.expBuf[:len(scores)])
			split = true
			mid := iv.lo + 1 + pick
			next = append(next, phpInterval{iv.lo, mid}, phpInterval{mid, iv.hi})
		}
		if !split {
			// Every interval was already a singleton (only possible on a
			// fully refined partition): the round's allocation buys nothing,
			// so charge it explicitly to keep the ledger at eps.
			m.ChargePar(label, p.epsPerIter)
		}
		parts, next = next, parts
	}
	sc.parts, sc.next = parts, next

	for _, iv := range parts {
		est := sum(iv.lo, iv.hi) + m.LaplacePar("counts", 1/p.eps2, p.eps2)
		if est < 0 {
			est = 0
		}
		uniformSpread(out, iv.lo, iv.hi, est)
	}
	return m.Err()
}

// CompositionPlan implements Planner. Each bisection round touches disjoint
// intervals, so its selections form one parallel scope of eps1/maxIter; the
// final bucket counts are likewise disjoint and share eps2.
func (p *PHP) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "split*", Kind: noise.Parallel},
		{Label: "counts", Kind: noise.Parallel},
	}
}

func log2Ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
