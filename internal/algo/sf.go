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

// SF is the StructureFirst algorithm of Xu et al. (VLDBJ 2013). It fixes the
// number of histogram buckets at k = ceil(n/10) (the authors' guideline,
// which the benchmark adopts as a trained default — Section 6.4), selects
// the k-1 bucket boundaries privately with the exponential mechanism using a
// squared-error cost, and measures bucket counts with the remaining budget.
//
// This implementation includes the modification from Section 6.2 of Xu et
// al. that the benchmark's experiments use: a small hierarchy is built
// inside each bucket (rather than assuming uniformity), which restores
// consistency (Theorem 7 of the benchmark paper).
//
// The boundary-selection score is a function of squared counts, so its
// sensitivity depends on the count upper bound F — scale-derived side
// information, which is why SF is the one algorithm that is not
// scale-epsilon exchangeable (Theorem 10).
type SF struct {
	// Rho is the budget fraction for structure selection.
	Rho float64
	// BucketDivisor sets k = ceil(n/BucketDivisor); the authors recommend 10.
	BucketDivisor int
	// Hierarchical enables the consistency modification (in-bucket trees).
	Hierarchical bool
	// ScaleRho, when positive, estimates F = scale privately with this
	// budget fraction instead of using true scale as side information.
	ScaleRho float64
}

func init() {
	Register("SF", func() Algorithm { return &SF{Rho: 0.5, BucketDivisor: 10, Hierarchical: true} })
}

// Name implements Algorithm.
func (s *SF) Name() string { return "SF" }

// Supports implements Algorithm; SF is 1D only (Table 1).
func (s *SF) Supports(k int) bool { return k == 1 }

// DataDependent implements Algorithm.
func (s *SF) DataDependent() bool { return true }

// SetScaleEstimator implements SideInfoUser.
func (s *SF) SetScaleEstimator(rho float64) { s.ScaleRho = rho }

// Run implements Algorithm.
func (s *SF) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(s, x, w, eps, rng)
}

// sfPlan hoists the prefix and squared-prefix tables the boundary scores are
// built from, plus the resolved parameters. Boundary selection and the
// in-bucket hierarchies draw fresh noise per trial; bucket widths are
// near-uniform random (tiny per-boundary selection budgets), so the widths
// never repeat enough to cache — each trial instead rebuilds its in-bucket
// hierarchies into a reusable flat-tree arena, which is allocation-free at
// steady state.
type sfPlan struct {
	s          *SF
	data       []float64
	prefix, sq []float64
	n, k       int
	eps        float64
	scale      float64
	eps1, eps2 float64    // resolved at plan time when the scale is public
	bufs       *sync.Pool // *sfScratch
}

// sfScratch is one trial's selection and measurement state, including the
// rebuildable flat tree the in-bucket hierarchies are constructed into.
type sfScratch struct {
	bounds []int
	scores []float64
	expBuf []float64
	budget []float64
	sub    noise.Meter
	ftree  tree.Flat
	fsc    *tree.Scratch
}

// Plan implements Algorithm.
func (s *SF) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 1 {
		return nil, fmt.Errorf("sf: 1D only, got %dD", x.K())
	}
	rho := s.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	div := s.BucketDivisor
	if div < 1 {
		div = 10
	}
	n := x.N()
	k := (n + div - 1) / div
	if k < 1 {
		k = 1
	}
	data := x.Data
	sq := make([]float64, n+1)
	for i, v := range data {
		sq[i+1] = sq[i] + v*v
	}
	p := &sfPlan{
		s: s, data: data, prefix: prefixSums(data), sq: sq,
		n: n, k: k, eps: eps,
		// F (the bucket-count bound) defaults to the dataset scale as
		// declared public side information; ScaleRho > 0 replaces it with
		// a metered per-trial estimate in Execute.
		scale: x.Scale(), //dp:public Pside declared side information (HayMMCZ16 Principle 7)
	}
	if s.ScaleRho <= 0 {
		p.eps1, p.eps2 = sfBudgetSplit(rho, eps, k)
	}
	p.bufs = scratchPool(scratchKey{mech: "SF", sizes: [3]int{n, k}}, func() any {
		return &sfScratch{
			bounds: make([]int, 0, k+1),
			scores: make([]float64, n),
			expBuf: make([]float64, n),
			budget: make([]float64, 0, 64),
			fsc:    tree.NewScratch(),
		}
	})
	return p, nil
}

// sfBudgetSplit applies the single-bucket budget fix: with no boundaries to
// select, the whole (remaining) budget goes to measurement.
func sfBudgetSplit(rho, epsLeft float64, k int) (eps1, eps2 float64) {
	if k <= 1 {
		return 0, epsLeft
	}
	return rho * epsLeft, (1 - rho) * epsLeft
}

//dp:hotpath
func (p *sfPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*sfScratch)
	defer p.bufs.Put(sc)

	eps1, eps2 := p.eps1, p.eps2
	// F bounds any bucket count; scale is the trivial bound. Side info
	// unless ScaleRho directs a private estimate (then F and the stage
	// budgets depend on this trial's draw).
	F := p.scale
	if p.s.ScaleRho > 0 {
		epsF := p.eps * p.s.ScaleRho
		F += m.Laplace("scale", 1/epsF, epsF)
		if F < 1 {
			F = 1
		}
		rho := p.s.Rho
		if rho <= 0 || rho >= 1 {
			rho = 0.5
		}
		eps1, eps2 = sfBudgetSplit(rho, p.eps-epsF, p.k)
	}
	if F <= 0 {
		F = 1
	}

	bounds := p.selectBoundaries(sc, eps1, F, m)

	if !p.s.Hierarchical {
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			est := p.prefix[hi] - p.prefix[lo] + m.LaplacePar("counts", 1/eps2, eps2)
			if est < 0 {
				est = 0
			}
			uniformSpread(out, lo, hi, est)
		}
		return m.Err()
	}
	// Consistency modification: binary hierarchy within every bucket
	// (disjoint buckets compose in parallel, so each gets the full eps2).
	// Every bucket's tree runs in its own parallel sub-meter: the per-level
	// spends within a bucket compose sequentially to eps2, and the buckets'
	// totals compose by maximum.
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		width := hi - lo
		if err := sc.ftree.RebuildInterval(width, 2); err != nil {
			return err
		}
		h := sc.ftree.Height()
		budget := sc.budget[:0]
		for l := 0; l < h; l++ {
			budget = append(budget, eps2/float64(h))
		}
		sc.budget = budget
		// Pin the pooled tree scratch to a local for the whole
		// compute→measure→infer sequence: the raw in-bucket sums leave it
		// only through MeasureInto's metered draws.
		fsc := sc.fsc
		m.ResetSub(&sc.sub, "bucket", eps2, true)
		sc.ftree.ComputeSums(p.data[lo:hi], fsc)
		sc.ftree.MeasureInto(&sc.sub, fsc, budget)
		sc.ftree.InferInto(fsc, out[lo:hi])
		sc.sub.Close()
	}
	return m.Err()
}

// CompositionPlan implements Planner: the optional scale estimate and the
// k-1 boundary selections compose sequentially; the per-bucket measurements
// run over disjoint buckets, so each bucket (a flat count, or a whole
// in-bucket hierarchy under the consistency modification) gets the full eps2
// and the buckets compose in parallel.
func (s *SF) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "boundary", Kind: noise.Sequential},
		{Label: "counts", Kind: noise.Parallel},
		{Label: "bucket", Kind: noise.Parallel},
	}
}

// selectBoundaries picks k-1 interior boundaries left to right with the
// exponential mechanism. The score of placing the next boundary at position
// m is the negated sum of squared deviations of the bucket it closes,
// normalized by F so the per-record sensitivity is bounded by a constant.
// The prefix tables were built at plan time; the score and weight buffers
// come from the trial scratch.
func (p *sfPlan) selectBoundaries(sc *sfScratch, eps1, F float64, m *noise.Meter) []int {
	n, k := p.n, p.k
	bounds := append(sc.bounds[:0], 0)
	defer func() { sc.bounds = bounds }()
	if k <= 1 {
		bounds = append(bounds, n)
		return bounds
	}
	epsPer := eps1 / float64(k-1)
	sse := func(lo, hi int) float64 {
		if hi <= lo {
			return 0
		}
		w := float64(hi - lo)
		total := p.prefix[hi] - p.prefix[lo]
		return (p.sq[hi] - p.sq[lo]) - total*total/w
	}
	lo := 0
	for b := 1; b < k; b++ {
		remaining := k - b // buckets still to be closed after this one
		hiLimit := n - remaining
		if hiLimit <= lo+1 {
			// Forced placement: there is only one legal position, the choice
			// reveals nothing, and no draw happens. Charge the boundary's
			// allocation anyway so the ledger matches the declared plan.
			m.Charge("boundary", epsPer)
			bounds = append(bounds, lo+1)
			lo++
			continue
		}
		scores := sc.scores[:hiLimit-lo]
		for mid := lo + 1; mid <= hiLimit; mid++ {
			// Cost of closing the bucket at mid plus the remaining SSE
			// amortized over the buckets still to come (the lookahead term
			// keeps the greedy choice from always closing tiny buckets).
			// Normalizing by F bounds the per-record sensitivity by a
			// constant, since one record changes sse by at most ~4F.
			cost := sse(lo, mid) + sse(mid, n)/float64(remaining)
			scores[mid-lo-1] = -cost / (4 * F)
		}
		pick := m.ExpMechBuf("boundary", scores, 1, epsPer, sc.expBuf[:len(scores)])
		mid := lo + 1 + pick
		bounds = append(bounds, mid)
		lo = mid
	}
	bounds = append(bounds, n)
	return bounds
}

func prefixSums(data []float64) []float64 {
	prefix := make([]float64, len(data)+1)
	for i, v := range data {
		prefix[i+1] = prefix[i] + v
	}
	return prefix
}
