package algo

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"weak"

	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Plan is a prepared release plan bound to one (x, w, eps) experiment cell,
// produced by Algorithm.Plan. Execute runs one independent trial: it draws
// every noise sample through m (whose Total must equal the planned eps) and
// writes the estimate into out (len x.N()).
//
// Plan construction is deterministic — no randomness, no privacy cost — so a
// plan amortizes all structure building (interval trees, wavelet transforms,
// grid layouts, workload weights, deviation tables) across the repeated
// trials of a benchmark cell. Execute is safe for concurrent use: per-trial
// state lives in internal pools, so one plan can serve every worker of a
// parallel trial loop. For a fixed meter/RNG the output is bit-identical to
// Run with the same arguments (Run is Plan + Execute).
//
// Data-independent mechanisms (Identity, H, Hb, GreedyH, Privelet, QuadTree,
// UGrid without Rside, EFPA's spectrum and score table) front-load all
// structural work at plan time; data-dependent mechanisms (DAWA, MWEM, AHP,
// SF, PHP, DPCube, AGrid, HybridTree) re-select their structure from fresh
// noise inside every Execute — as differential privacy demands — but still
// hoist their deterministic data summaries (prefix sums, deviation tables,
// true workload answers, Hilbert linearizations) into the plan and recycle
// their per-trial scratch.
type Plan interface {
	Execute(m *noise.Meter, out []float64) error
}

// runPlan implements Run for every mechanism: plan once, execute once.
func runPlan(a Algorithm, x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	p, err := a.Plan(x, w, eps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, x.N())
	if err := p.Execute(noise.NewMeter(eps, rng), out); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteAudited runs one trial of a prepared plan through a ledger-backed
// meter and asserts afterwards that the mechanism spent exactly eps (within
// 1e-9) and that the ledger matches a's declared composition plan. It is the
// plan-path counterpart of RunAudited, used by the experiment runner's trial
// loop so auditing keeps amortizing structure across trials.
func ExecuteAudited(a Algorithm, p Plan, eps float64, rng *rand.Rand, out []float64) error {
	m, err := noise.NewAuditedMeter(eps, rng)
	if err != nil {
		return err
	}
	defer m.Release()
	if err := p.Execute(m, out); err != nil {
		return err
	}
	var plan noise.Plan
	if pl, ok := a.(Planner); ok {
		plan = pl.CompositionPlan()
	}
	if err := m.Audit(plan); err != nil {
		return fmt.Errorf("algo: %s failed the budget audit: %w", a.Name(), err)
	}
	return nil
}

// ExecuteAuditedV is ExecuteAudited; the one sampler family needs no version.
func ExecuteAuditedV(a Algorithm, p Plan, eps float64, rng *rand.Rand, _ noise.SamplerVersion, out []float64) error {
	return ExecuteAudited(a, p, eps, rng, out)
}

// --- shared deterministic caches ---

// optimalBranchingCache memoizes Hb's variance-optimal branching factor,
// which is a pure function of (n, k) but costs an O(n log n) scan to find.
var optimalBranchingCache sync.Map // [2]int -> int

func optimalBranchingCached(n, k int) int {
	key := [2]int{n, k}
	if v, ok := optimalBranchingCache.Load(key); ok {
		return v.(int)
	}
	b := OptimalBranching(n, k)
	optimalBranchingCache.Store(key, b)
	return b
}

// levelWeightsCache memoizes GreedyH's canonical level weights per (workload,
// n, b). Workloads are shared across the cells of a sweep, so the O(q log n)
// counting walk runs once per sweep instead of once per trial. The key holds
// the workload's query storage weakly (weak.Make of one pointer always
// compares equal, so a reused workload hits) and a cleanup deletes the entry
// once that storage is collected, so plans over fresh workloads pin nothing.
// It keys on the storage rather than the workload because weak.Make is a
// fatal error on a linker-allocated package-level Workload. The query count
// rides along in the key so a workload grown after first use misses instead
// of returning weights for its old query set.
var levelWeightsCache sync.Map // levelWeightsKey -> []float64 (read-only)

type levelWeightsKey struct {
	queries weak.Pointer[int32]
	n, b, q int
}

func canonicalLevelWeightsCached(n, b int, w *workload.Workload) []float64 {
	if w == nil {
		return nil
	}
	qk := workload.QueryKey(w)
	if qk == nil {
		return CanonicalLevelWeights(n, b, w) // no queries to count
	}
	key := levelWeightsKey{queries: weak.Make(qk), n: n, b: b, q: w.Size()}
	if v, ok := levelWeightsCache.Load(key); ok {
		return v.([]float64)
	}
	// A miss (non-1D or mismatched workloads) is cached too, as a typed nil.
	v, loaded := levelWeightsCache.LoadOrStore(key, CanonicalLevelWeights(n, b, w))
	if !loaded {
		runtime.AddCleanup(qk, func(k levelWeightsKey) { levelWeightsCache.Delete(k) }, key)
	}
	return v.([]float64)
}

// hilbertCache memoizes the Hilbert-curve permutation per grid side; the
// per-plan linearized data still has to be gathered, but the curve walk
// (the expensive part) runs once per side.
var hilbertCache sync.Map // int -> []int (read-only)

// hilbertLinearizeCached is transform.HilbertLinearize with the permutation
// cached per side: out[d] = data[perm[d]], identical to the uncached values.
func hilbertLinearizeCached(data []float64, side int) ([]float64, []int, error) {
	if v, ok := hilbertCache.Load(side); ok {
		perm := v.([]int)
		out := make([]float64, len(data))
		if len(data) != len(perm) {
			return nil, nil, fmt.Errorf("algo: data length %d does not match %dx%d grid", len(data), side, side)
		}
		for d, src := range perm {
			out[d] = data[src]
		}
		return out, perm, nil
	}
	out, perm, err := transform.HilbertLinearize(data, side)
	if err != nil {
		return nil, nil, err
	}
	hilbertCache.Store(side, perm)
	return out, perm, nil
}

// newTreePlan builds the shared fixed-structure plan, pre-warming the flat
// tree's scratch pool: without this the first Execute pays the tree-sized
// scratch allocation, which reads as a cold-iteration artifact in timed
// benchmark loops (and as first-request latency in serve).
func newTreePlan(flat *tree.Flat, data []float64, budget []float64) *treePlan {
	flat.Release(flat.Acquire())
	return &treePlan{flat: flat, data: data, budget: budget}
}

// flatTreeEstimate is the shared per-trial core of the hierarchical
// mechanisms: sums, measure, infer over a cached flat tree. out must have
// length f.N().
func flatTreeEstimate(f *tree.Flat, data []float64, budget []float64, m *noise.Meter, out []float64) {
	sc := f.Acquire()
	f.ComputeSums(data, sc)
	f.MeasureInto(m, sc, budget)
	f.InferInto(sc, out)
	f.Release(sc)
}
