package algo

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// MWEM is the multiplicative-weights exponential-mechanism algorithm of
// Hardt, Ligett and McSherry (NIPS 2012). It maintains a synthetic
// distribution over the domain, initialized uniform at the (assumed public)
// dataset scale, and runs T rounds: each round privately selects the
// workload query with the largest error via the exponential mechanism,
// measures it with the Laplace mechanism, and applies multiplicative-weights
// updates. Following the published implementation, every round replays the
// full measurement history for several update sweeps.
//
// The number of rounds T is the free parameter the paper calls out
// (Section 6.4): the registry's "MWEM" uses the static T = 10 from the
// original paper, while "MWEM*" sets T from the trained data-independent
// profile as a function of the eps*scale product and estimates the scale
// privately instead of assuming it public.
type MWEM struct {
	// T is the number of rounds; 0 means derive it with TFromSignal.
	T int
	// TFromSignal maps the product eps*scale to a round count; used by
	// MWEM* (trained via core.TrainMWEM or the built-in DefaultTProfile).
	TFromSignal func(product float64) int
	// ScaleRho, when positive, is the budget fraction spent estimating the
	// scale privately instead of using it as side information.
	ScaleRho float64
	// UpdateSweeps is the number of history-replay sweeps per round.
	UpdateSweeps int

	starred bool
}

func init() {
	Register("MWEM", func() Algorithm { return &MWEM{T: 10, UpdateSweeps: 2} })
	Register("MWEM*", func() Algorithm {
		return &MWEM{TFromSignal: DefaultTProfile, ScaleRho: 0.05, UpdateSweeps: 2, starred: true}
	})
}

// DefaultTProfile is the shipped data-independent mapping from the signal
// strength eps*scale to the number of MWEM rounds, learned offline on
// synthetic power-law and normal shapes exactly as Section 6.4 prescribes
// (see core.TrainMWEM for the trainer). T grows from 2 at weak signal to 100
// at strong signal, mirroring the paper's reported range.
func DefaultTProfile(product float64) int {
	switch {
	case product < 50:
		return 2
	case product < 500:
		return 5
	case product < 5e3:
		return 10
	case product < 5e4:
		return 20
	case product < 5e5:
		return 40
	case product < 5e6:
		return 70
	default:
		return 100
	}
}

// Name implements Algorithm.
func (m *MWEM) Name() string {
	if m.starred {
		return "MWEM*"
	}
	return "MWEM"
}

// Supports implements Algorithm.
func (m *MWEM) Supports(k int) bool { return k >= 1 }

// DataDependent implements Algorithm.
func (m *MWEM) DataDependent() bool { return true }

// SetScaleEstimator implements SideInfoUser.
func (m *MWEM) SetScaleEstimator(rho float64) { m.ScaleRho = rho }

// measurement is one noisy answer in the MWEM history.
type measurement struct {
	query int
	value float64
}

// mwemState holds every buffer one MWEM run needs, allocated once up front
// so the per-round selection and the history-replay update sweeps are
// allocation-free. The estimate is kept in raw multiplicative-weights units
// with a deferred normalization scalar: true estimate = raw * norm. The
// per-entry renormalization of the published algorithm divides every cell by
// the current total; folding that division into norm turns each history
// replay step from O(n) into one rectangle multiply, which the lazy weight
// structures below make cheaper still. The folding is algebraically exact —
// it changes floating-point rounding only, at the ~1e-12 relative level (see
// the golden tests, which pin the optimized output to the reference
// implementation).
type mwemState struct {
	w      *workload.Workload // the plan's workload, set by bind
	ev     *workload.Evaluator
	est    []float64 // the raw weights once materialize has flattened them
	norm   float64   // deferred renormalization scalar
	total  float64   // running raw total of the weights
	scale  float64   // the (noisy or public) scale the estimate sums to
	estAns []float64 // per-query answers of the current estimate
	scores []float64 // exponential-mechanism scores
	expBuf []float64 // exponential-mechanism weight scratch
	chosen []bool    // queries already selected (reusable, replaces a map)
	hist   []measurement

	// The raw weights live in exactly one of two lazy structures, which
	// turn each history replay step from O(range) into O(log n) in 1D and
	// into O(tiles + border cells) in 2D. Selection flattens them once per
	// round. See mulSegTree and mulTileGrid for the numerical contract.
	seg   *mulSegTree  // 1D; est is a separate output buffer
	tiles *mulTileGrid // 2D; est aliases the tiles' cells
}

// newMWEMState allocates the state for workloads of q queries over dims. It
// reads sizes only: states are pooled by shape, and bind points one at a
// plan's workload before each trial.
func newMWEMState(dims []int, q, rounds int) *mwemState {
	st := &mwemState{
		ev:     workload.NewEvaluator(&workload.Workload{Dims: dims}),
		estAns: make([]float64, q),
		scores: make([]float64, q),
		expBuf: make([]float64, q),
		chosen: make([]bool, q),
		hist:   make([]measurement, 0, rounds),
	}
	if len(dims) == 1 {
		st.seg = newMulSegTree(dims[0])
		st.est = make([]float64, dims[0])
	} else {
		st.tiles = newMulTileGrid(dims[0], dims[1])
		st.est = st.tiles.cell
	}
	return st
}

// bind points the state at a workload of the shape it was built for. It is
// O(1) and allocates nothing.
func (st *mwemState) bind(w *workload.Workload) {
	st.w = w
	st.ev.Bind(w)
}

// reset re-initializes a (possibly recycled) state for a fresh trial at the
// given scale: uniform estimate, no deferred scalar, empty history.
func (st *mwemState) reset(scale float64) {
	per := scale / float64(len(st.est))
	if st.seg != nil {
		st.seg.fill(per)
	} else {
		st.tiles.fill(per)
	}
	st.norm = 1
	st.scale = scale
	st.total = scale // uniform initialization sums to scale by construction
	for i := range st.chosen {
		st.chosen[i] = false
	}
	st.hist = st.hist[:0]
}

// materialize applies the deferred scalar to every weight, recomputes the
// raw total exactly (resetting its incremental drift) and leaves the
// weights flat in est. In 1D the scalar is folded in as one root-range
// multiply and the leaves are copied into est; in 2D the tiles fold it into
// their cells along with their multipliers.
func (st *mwemState) materialize() {
	if st.tiles != nil {
		st.total = st.tiles.Flatten(st.norm)
		st.norm = 1
		return
	}
	if st.norm != 1 {
		st.seg.MulRange(0, len(st.est), st.norm)
		st.norm = 1
		st.total = st.seg.Total()
	}
	st.seg.MaterializeInto(st.est)
}

// select picks the worst-approximated not-yet-chosen query with the
// exponential mechanism at budget epsSelect and marks it chosen. The
// estimate stays in raw units: the evaluator answers raw range sums, which
// the deferred scalar converts to true answers one multiply per query. The
// prefix table's final entry is the exact raw total, which resets the
// incremental drift of total each round.
func (st *mwemState) selectQuery(trueAns []float64, epsSelect float64, m *noise.Meter) int {
	if st.seg != nil {
		st.ev.Reset(st.seg.Leaves())
	} else {
		st.tiles.Flatten(1)
		st.ev.Reset(st.est)
	}
	st.total = st.ev.Total()
	if st.total > 0 {
		st.norm = st.scale / st.total
	}
	st.ev.AnswerAll(st.estAns)
	for i := range st.scores {
		if st.chosen[i] {
			st.scores[i] = math.Inf(-1)
			continue
		}
		st.scores[i] = math.Abs(trueAns[i] - st.estAns[i]*st.norm)
	}
	q := m.ExpMechBuf("select", st.scores, 1, epsSelect, st.expBuf)
	st.chosen[q] = true
	return q
}

// replay applies one multiplicative-weights pass over the whole history,
// leaving the normalization scalar deferred. It allocates nothing.
func (st *mwemState) replay() {
	for _, h := range st.hist {
		st.update(h)
	}
}

// update applies one history entry: a multiplicative-weights step on the
// cells the query covers, followed by renormalization to the scale, which is
// folded into the deferred scalar instead of touching all n cells. The range
// sum and the multiplicative step run on the segment tree in 1D and on the
// tiles in 2D.
func (st *mwemState) update(h measurement) {
	var rs float64 // raw sum of the query's range
	if st.seg != nil {
		lo, hi := st.w.Range(h.query)
		rs = st.seg.CollectRange(lo, hi+1)
	} else {
		y0, x0, y1, x1 := st.w.Rect(h.query)
		rs = st.tiles.CollectRect(y0, x0, y1+1, x1+1)
	}
	cur := rs * st.norm
	factor := (h.value - cur) / (2 * st.scale)
	if factor > 30 {
		factor = 30
	} else if factor < -30 {
		factor = -30
	}
	mult := math.Exp(factor)
	// Renormalize to the (noisy or public) scale via the deferred scalar.
	// The tree's root is the exact current raw total; the tiles' total is
	// tracked incrementally.
	if st.seg != nil {
		st.seg.ApplyCollected(mult)
		st.total = st.seg.Total()
	} else {
		st.tiles.ApplyCollected(mult)
		st.total += rs * (mult - 1)
	}
	if st.total > 0 {
		st.norm = st.scale / st.total
	}
	// Guard against raw-weight overflow/underflow when many large
	// multiplicative steps accumulate before the scalar is applied.
	if st.total > 1e280 || (st.total > 0 && st.total < 1e-280) {
		st.materialize()
	}
}

// Run implements Algorithm.
func (m *MWEM) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(m, x, w, eps, rng)
}

// mwemPlan hoists the true workload answers (the only data summary every
// round reads) and recycles the whole multiplicative-weights state across
// trials; the rounds themselves are per-trial noise, as the mechanism
// demands.
type mwemPlan struct {
	m       *MWEM
	w       *workload.Workload
	trueAns []float64
	n       int
	eps     float64
	scale   float64
	rounds  int // resolved at plan time when the scale is public
	sweeps  int
	states  *sync.Pool // *mwemState
}

// Plan implements Algorithm.
func (m *MWEM) Plan(x *vec.Vector, w *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if w == nil || w.Size() == 0 {
		w = workload.Prefix(x.N())
	}
	sweeps := m.UpdateSweeps
	if sweeps < 1 {
		sweeps = 1
	}
	trueAns, err := w.Evaluate(x)
	if err != nil {
		return nil, err
	}
	p := &mwemPlan{
		m: m, w: w, trueAns: trueAns, n: x.N(),
		eps: eps, sweeps: sweeps,
		// Pside: the dataset scale is declared public side information
		// (HayMMCZ16 Principle 7). Rside (ScaleRho > 0) ignores this value
		// as-is and re-estimates it with a metered draw in Execute.
		scale: x.Scale(), //dp:public Pside declared side information; Rside noises it per trial
	}
	if m.ScaleRho <= 0 {
		p.rounds = m.resolveRounds(eps, p.scale, w)
	}
	// The state is pooled by shape, the domain and the query count, as every
	// other mechanism's scratch is; Execute binds it to w.
	dims, q := slices.Clone(w.Dims), w.Size()
	key := scratchKey{mech: "MWEM", sizes: [3]int{dims[0], 0, q}}
	if len(dims) == 2 {
		key.sizes[1] = dims[1]
	}
	p.states = scratchPool(key, func() any { return newMWEMState(dims, q, 8) })
	return p, nil
}

// resolveRounds applies the static T or the trained profile, clamped to the
// workload size.
func (m *MWEM) resolveRounds(eps, scale float64, w *workload.Workload) int {
	rounds := m.T
	if rounds <= 0 {
		prof := m.TFromSignal
		if prof == nil {
			prof = DefaultTProfile
		}
		rounds = prof(eps * scale)
	}
	if rounds < 1 {
		rounds = 1
	}
	if rounds > w.Size() {
		rounds = w.Size()
	}
	return rounds
}

func (p *mwemPlan) Execute(mt *noise.Meter, out []float64) error {
	epsLeft, scale, rounds := p.eps, p.scale, p.rounds
	if p.m.ScaleRho > 0 {
		// Rside: the scale estimate (and therefore the round count) is this
		// trial's first noise draw.
		epsScale := p.eps * p.m.ScaleRho
		scale += mt.Laplace("scale", 1/epsScale, epsScale)
		if scale < 1 {
			scale = 1
		}
		epsLeft -= epsScale
		rounds = p.m.resolveRounds(p.eps, scale, p.w)
	}

	st := p.states.Get().(*mwemState)
	defer p.states.Put(st)
	st.bind(p.w)
	st.reset(scale)
	epsRound := epsLeft / float64(rounds)

	for t := 0; t < rounds; t++ {
		// Select the worst-approximated query with half the round budget.
		q := st.selectQuery(p.trueAns, epsRound/2, mt)
		// Measure it with the other half (noise scale 2/epsRound is
		// sensitivity 1 over a spend of epsRound/2).
		meas := p.trueAns[q] + mt.Laplace("measure", 2/epsRound, epsRound/2)
		st.hist = append(st.hist, measurement{q, meas})

		// Multiplicative weights over the history.
		for s := 0; s < p.sweeps; s++ {
			st.replay()
		}
	}
	st.materialize()
	copy(out, st.est)
	return mt.Err()
}

// CompositionPlan implements Planner. The budget is epsScale for the
// optional private scale estimate plus, per round, half the round budget on
// selection and half on measurement — all sequential spends summing to eps.
func (m *MWEM) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "select", Kind: noise.Sequential},
		{Label: "measure", Kind: noise.Sequential},
	}
}
