package algo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// DAWA is the data- and workload-aware algorithm of Li, Hay and Miklau
// (PVLDB 2014). Stage one spends a rho fraction of the budget computing a
// least-cost partition of the domain into buckets via dynamic programming
// over noisy interval costs, where the cost of a bucket is its L1 deviation
// from uniformity plus the expected noise of measuring one more bucket.
// Candidate buckets are restricted to dyadic intervals, which keeps the
// number of perturbed costs at O(n log n) and the DP at O(n log n), as in
// the published implementation. Stage two runs GreedyH over the bucket-level
// domain with the remaining budget and spreads bucket estimates uniformly.
//
// For 2D inputs the domain is linearized along the Hilbert curve first, the
// 1D algorithm runs on the linearized vector, and the estimate is mapped
// back (Appendix B).
type DAWA struct {
	// Rho is the stage-one budget fraction (paper default: 0.25).
	Rho float64
	// B is the branching factor of the stage-two hierarchy (paper: 2).
	B int
	// NoDyadicRestriction switches the partition DP to consider all O(n^2)
	// intervals; exposed for the ablation benchmark only.
	NoDyadicRestriction bool
}

func init() { Register("DAWA", func() Algorithm { return &DAWA{Rho: 0.25, B: 2} }) }

// Name implements Algorithm.
func (d *DAWA) Name() string { return "DAWA" }

// Supports implements Algorithm.
func (d *DAWA) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (d *DAWA) DataDependent() bool { return true }

// Run implements Algorithm.
func (d *DAWA) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(d, x, w, eps, rng)
}

// CompositionPlan implements Planner: stage one charges per-dyadic-level
// parallel scopes summing to rho*eps, and stage two runs inside a sequential
// sub-meter holding the remaining (1-rho)*eps. "part-forfeit" covers
// stage-one budget slices that buy no measurement (single-cell domains, and
// the phantom dyadic level the noise calibration assumes on non-power-of-two
// domains); charging them keeps the ledger equal to eps without touching the
// noise stream.
func (d *DAWA) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "part-level*", Kind: noise.Parallel},
		{Label: "part-all", Kind: noise.Parallel},
		{Label: "part-forfeit", Kind: noise.Sequential},
		{Label: "stage2", Kind: noise.Sequential},
	}
}

// dawaCandidate is one precomputed partition candidate: the interval, its
// exact (noise-free) deviation cost, and the ledger-label index of its
// dyadic level. The per-trial work is just the Laplace draw on top.
type dawaCandidate struct {
	lo, hi int32
	level  int32 // dyadic level (TrailingZeros of size); unused by the ablation
	dev    float64
}

// dawaPlan precomputes everything about stage one that does not depend on
// noise — the full candidate table in the exact seed enumeration order, the
// DP's end-grouping, the noise calibration — plus the Hilbert linearization
// for 2D. Each Execute re-runs the partition DP and stage two on fresh noise
// through pooled scratch.
type dawaPlan struct {
	data []float64 // 1D data, or its Hilbert linearization in 2D
	w    *workload.Workload
	perm []int // 2D only
	n, b int

	eps1, eps2 float64
	penalty    float64
	costNoise  float64 // dyadic per-candidate noise scale
	epsLevel   float64
	forfeit    float64 // phantom-level charge on non-pow2 domains (0 if none)
	allNoise   float64 // ablation noise scale
	ablation   bool

	cands  []dawaCandidate
	endOff []int32 // candidate indices with hi == j: endIdx[endOff[j]:endOff[j+1]]
	endIdx []int32

	bufs *sync.Pool // *dawaScratch
}

// dawaScratch is one trial's partition and stage-two state. The stage-two
// hierarchy over the trial's buckets is rebuilt into the ftree arena — the
// noisy bucket count k rarely repeats across trials, so rebuilding beats any
// cache (and is allocation-free at steady state).
type dawaScratch struct {
	costs        []float64
	best         []float64
	back         []int
	bounds       []int
	bucketData   []float64
	bucketEst    []float64
	cellToBucket []int
	weights      []float64
	est          []float64 // 2D only: linearized estimate
	sub          noise.Meter
	ftree        tree.Flat
	fsc          *tree.Scratch
}

// Plan implements Algorithm. The deviation table — the expensive half of
// stage one — is a deterministic function of the data, so it is computed
// once here (O(n log n) for the dyadic set) and only perturbed per trial.
func (d *DAWA) Plan(x *vec.Vector, w *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	var data []float64
	var perm []int
	switch x.K() {
	case 1:
		data = x.Data
	case 2:
		ny, nx := x.Dims[0], x.Dims[1]
		if nx != ny {
			return nil, fmt.Errorf("dawa: 2D requires a square grid, got %dx%d", nx, ny)
		}
		var err error
		data, perm, err = hilbertLinearizeCached(x.Data, nx)
		if err != nil {
			return nil, err
		}
		w = nil // rectangles do not map to intervals on the curve
	default:
		return nil, fmt.Errorf("dawa: unsupported dimensionality %d", x.K())
	}

	rho := d.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.25
	}
	b := d.B
	if b < 2 {
		b = 2
	}
	n := len(data)
	p := &dawaPlan{
		data: data, w: w, perm: perm, n: n, b: b,
		eps1: rho * eps, eps2: (1 - rho) * eps,
		ablation: d.NoDyadicRestriction,
	}
	p.penalty = 1 / p.eps2

	if n > 1 {
		levels := log2Ceil(n) + 1
		// One record changes one cell by 1, which changes the cost of each
		// containing interval by at most 2; a cell is in at most one interval
		// per dyadic level.
		p.costNoise = 2 * float64(levels) / p.eps1
		p.epsLevel = p.eps1 / float64(levels)
		if p.ablation {
			// Exact O(n^2) interval set (ablation only; noise calibrated to
			// the declared sensitivity n, as in the published ablation). The
			// whole interval-cost family is accounted as one eps1 scope to
			// match that declaration. Deviations are maintained incrementally
			// over hi by a rank-indexed Fenwick scanner and tabulated once —
			// the enumeration order (lo ascending, then hi) is the seed
			// noise-draw order.
			p.allNoise = 2 * float64(n) / p.eps1
			p.cands = make([]dawaCandidate, 0, n*(n+1)/2)
			scan := newL1DevScanner(data)
			for lo := 0; lo < n; lo++ {
				scan.Restart()
				for hi := lo + 1; hi <= n; hi++ {
					scan.Push(hi - 1)
					p.cands = append(p.cands, dawaCandidate{lo: int32(lo), hi: int32(hi), dev: scan.Deviation()})
				}
			}
		} else {
			// All aligned dyadic intervals, costs computed bottom-up by
			// merging sorted halves; the visit order matches the seed
			// enumeration (ascending size, then lo), so the per-trial noise
			// stream is unchanged.
			p.cands = make([]dawaCandidate, 0, 2*n)
			dyadicDeviations(data, func(lo, size int, dev float64) {
				p.cands = append(p.cands, dawaCandidate{
					lo: int32(lo), hi: int32(lo + size),
					level: int32(bits.TrailingZeros(uint(size))), dev: dev,
				})
			})
			// The noise calibration counts log2Ceil(n)+1 levels, but on a
			// non-power-of-two domain only floor(log2(n))+1 dyadic sizes
			// exist: the phantom level's slice is charged as a forfeit so the
			// ledger sums to eps1 exactly (the calibration over-noises by
			// that slice — kept as-is to preserve the published noise
			// stream).
			if actual := bits.Len(uint(n)); actual < levels {
				p.forfeit = float64(levels-actual) * p.epsLevel
			}
		}
		// Group candidate indices by interval end for the DP, preserving the
		// enumeration order within each group (the DP's tie-breaking order).
		p.endOff = make([]int32, n+2)
		for _, c := range p.cands {
			p.endOff[c.hi+1]++
		}
		for j := 1; j <= n+1; j++ {
			p.endOff[j] += p.endOff[j-1]
		}
		p.endIdx = make([]int32, len(p.cands))
		fill := make([]int32, n+1)
		for i, c := range p.cands {
			p.endIdx[p.endOff[c.hi]+fill[c.hi]] = int32(i)
			fill[c.hi]++
		}
	}

	ncands, twoD := len(p.cands), 0
	if perm != nil {
		twoD = 1
	}
	p.bufs = scratchPool(scratchKey{mech: "DAWA", sizes: [3]int{n, ncands, twoD}}, func() any {
		sc := &dawaScratch{
			fsc:        tree.NewScratch(),
			costs:      make([]float64, ncands),
			best:       make([]float64, n+1),
			back:       make([]int, n+1),
			bounds:     make([]int, 0, n+1),
			bucketData: make([]float64, n),
			bucketEst:  make([]float64, n),
		}
		if twoD == 1 {
			// 2D: the Hilbert inverse permutation scatters a full
			// linearized estimate into out, so the buffer is part of the
			// scratch, not a per-trial allocation.
			sc.est = make([]float64, n)
		}
		return sc
	})
	return p, nil
}

//dp:hotpath
func (p *dawaPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*dawaScratch)
	defer p.bufs.Put(sc)

	bounds := p.partition(sc, m)
	k := len(bounds) - 1

	// Stage two: GreedyH on the bucket-level vector. The workload is mapped
	// onto buckets by translating each cell range to the covering bucket
	// range, which preserves prefix/range structure.
	bucketData := sc.bucketData[:k]
	for i := 0; i < k; i++ {
		bucketData[i] = 0
		for c := bounds[i]; c < bounds[i+1]; c++ {
			bucketData[i] += p.data[c]
		}
	}
	if err := sc.ftree.RebuildInterval(k, p.b); err != nil {
		return err
	}
	weights := p.bucketWeights(sc, &sc.ftree, bounds, k)
	bucketEst := sc.bucketEst[:k]
	// The pooled tree scratch is pinned to a local for the whole
	// compute→measure→infer sequence: the raw bucket sums written by
	// ComputeSums only ever leave it through MeasureInto's metered draws.
	fsc := sc.fsc
	m.ResetSub(&sc.sub, "stage2", p.eps2, false)
	sc.ftree.ComputeSums(bucketData, fsc)
	sc.ftree.MeasureInto(&sc.sub, fsc, levelBudgetFromWeights(p.eps2, sc.ftree.Height(), weights))
	sc.ftree.InferInto(fsc, bucketEst)
	sc.sub.Close()

	if p.perm == nil {
		for i := 0; i < k; i++ {
			uniformSpread(out, bounds[i], bounds[i+1], bucketEst[i])
		}
		return m.Err()
	}
	for i := 0; i < k; i++ {
		uniformSpread(sc.est, bounds[i], bounds[i+1], bucketEst[i])
	}
	for d, src := range p.perm {
		out[src] = sc.est[d]
	}
	return m.Err()
}

// partition runs stage one on this trial's noise and returns bucket
// boundaries (len k+1, first 0, last n), stored in the scratch. All interval
// costs are the precomputed deviations perturbed with Laplace noise
// calibrated to the per-level sensitivity of the interval-cost vector, and
// the DP then operates purely on noisy values (so stage one is eps1-DP).
// Each dyadic level's intervals partition the domain, so the level is
// charged as one parallel scope of eps1/levels.
func (p *dawaPlan) partition(sc *dawaScratch, m *noise.Meter) []int {
	n := p.n
	if n == 1 {
		// A single-cell domain has no partition to select: the stage-one
		// allocation buys nothing. Charge it explicitly so the ledger still
		// accounts for the full budget (no noise is drawn, so golden outputs
		// are untouched; over-reporting a spend is privacy-safe).
		m.Charge("part-forfeit", p.eps1)
		sc.bounds = append(sc.bounds[:0], 0, 1)
		return sc.bounds
	}
	costs := sc.costs
	if p.ablation {
		for i := range p.cands {
			costs[i] = p.cands[i].dev + m.LaplacePar("part-all", p.allNoise, p.eps1)
		}
	} else {
		// Each dyadic level present in the candidate set is one parallel
		// scope of epsLevel; the phantom levels of a non-power-of-two
		// domain are the forfeit, charged separately below.
		//dp:spends p.eps1 - p.forfeit
		for i := range p.cands {
			c := p.cands[i].dev + m.LaplacePar(idxLabel(partLevelLabels, int(p.cands[i].level)), p.costNoise, p.epsLevel)
			// Deviation costs are non-negative by construction; clamping
			// the noisy value is post-processing and stops the DP from
			// chasing spuriously negative costs.
			if c < 0 {
				c = 0
			}
			costs[i] = c
		}
		if p.forfeit > 0 {
			m.Charge("part-forfeit", p.forfeit)
		}
	}

	// DP over bucket endpoints: best[j] = min cost to cover [0, j).
	best, back := sc.best, sc.back
	best[0] = 0
	for j := 1; j <= n; j++ {
		best[j] = math.Inf(1)
		back[j] = j - 1
		for _, ci := range p.endIdx[p.endOff[j]:p.endOff[j+1]] {
			lo := int(p.cands[ci].lo)
			total := best[lo] + costs[ci] + p.penalty
			if total < best[j] {
				best[j] = total
				back[j] = lo
			}
		}
	}
	bounds := sc.bounds[:0]
	for j := n; j > 0; j = back[j] {
		bounds = append(bounds, j)
	}
	bounds = append(bounds, 0)
	sort.Ints(bounds)
	sc.bounds = bounds
	return bounds
}

// bucketWeights is bucketLevelWeights computed through scratch buffers over
// the trial's cached bucket tree: the cell-to-bucket mapping and per-level
// counts are identical, but no intermediate workload is materialized. A nil
// result means uniform allocation, as with bucketLevelWeights.
func (p *dawaPlan) bucketWeights(sc *dawaScratch, flat *tree.Flat, bounds []int, k int) []float64 {
	w := p.w
	if w == nil || len(w.Dims) != 1 || w.Dims[0] != p.n || k < 2 {
		return nil
	}
	if cap(sc.cellToBucket) < p.n {
		sc.cellToBucket = make([]int, p.n)
	}
	c2b := sc.cellToBucket[:p.n]
	for bi := 0; bi+1 < len(bounds); bi++ {
		for c := bounds[bi]; c < bounds[bi+1]; c++ {
			c2b[c] = bi
		}
	}
	h := flat.Height()
	if cap(sc.weights) < h {
		sc.weights = make([]float64, h)
	}
	weights := sc.weights[:h]
	for i := range weights {
		weights[i] = 0
	}
	for qi := 0; qi < w.Size(); qi++ {
		lo, hi := w.Range(qi)
		flat.AddCanonicalCount(c2b[lo], c2b[hi], weights)
	}
	return weights
}

// bucketLevelWeights maps the cell-level workload onto the bucket domain and
// computes canonical level weights there, so stage two's budget allocation
// remains workload-aware. Returns nil (uniform) when no usable workload.
func bucketLevelWeights(n, k, b int, bounds []int, w *workload.Workload) []float64 {
	if w == nil || len(w.Dims) != 1 || w.Dims[0] != n || k < 2 {
		return nil
	}
	// cellToBucket[i] = index of bucket containing cell i.
	cellToBucket := make([]int, n)
	for bi := 0; bi+1 < len(bounds); bi++ {
		for c := bounds[bi]; c < bounds[bi+1]; c++ {
			cellToBucket[c] = bi
		}
	}
	mapped := &workload.Workload{Name: w.Name + "/buckets", Dims: []int{k}}
	mapped.Grow(w.Size())
	for qi := 0; qi < w.Size(); qi++ {
		lo, hi := w.Range(qi)
		mapped.AddRange(cellToBucket[lo], cellToBucket[hi])
	}
	return CanonicalLevelWeights(k, b, mapped)
}
