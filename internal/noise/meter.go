package noise

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
)

// Meter is a privacy-metered noise source: a *rand.Rand paired with a total
// privacy budget and (optionally) an Accountant that is charged on every
// draw. Mechanisms construct one inside Run from their (eps, rng) arguments
// and route every random draw through it, so the budget arithmetic that the
// paper's composition claims rest on (Section 2.1) is machine-checkable: in
// audit mode the runner asserts after every trial that the ledger sums to
// exactly the trial's epsilon and matches the mechanism's declared
// composition plan.
//
// A meter built with NewMeter has no accountant attached — every charge is a
// no-op and nothing is appended to any ledger, so the serving/benchmark hot
// path pays only a nil check per draw. NewAuditedMeter attaches a pooled
// accountant that records every spend.
//
// The meter wraps the noise stream, never reorders it: each draw method
// performs exactly the underlying package-level draw with the caller's scale,
// so outputs are bit-identical with and without auditing.
type Meter struct {
	rng   *rand.Rand
	total float64
	acct  *Accountant // nil = metering off (the fast path)

	// Sub-meter bookkeeping: a child charges its parent once, at Close.
	parent   *Meter
	label    string
	parallel bool
	closed   bool

	err error // first budget/config error; surfaced by Err
}

// NewMeter returns an unaudited meter: draws are passed through to the
// underlying primitives and charges are no-ops. A non-positive eps is
// recorded as a deferred error (callers validate budgets before drawing).
func NewMeter(eps float64, rng *rand.Rand) *Meter {
	m := &Meter{rng: rng, total: eps}
	if eps <= 0 {
		m.err = fmt.Errorf("noise: non-positive meter budget %v", eps)
	}
	return m
}

// NewMeterV is NewMeter; the one sampler family needs no version.
func NewMeterV(eps float64, rng *rand.Rand, _ SamplerVersion) *Meter { return NewMeter(eps, rng) }

// NewAuditedMeter returns a meter whose every charge is recorded by a pooled
// Accountant with the given total budget. Call Release when done with the
// meter to return the accountant to the pool.
func NewAuditedMeter(eps float64, rng *rand.Rand) (*Meter, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("noise: non-positive meter budget %v", eps)
	}
	return &Meter{rng: rng, total: eps, acct: newPooledAccountant(eps)}, nil
}

// acctPool recycles accountants (and their ledger slices) across audited
// trials, so audit mode's per-trial cost is appends into retained capacity.
var acctPool = sync.Pool{New: func() any { return &Accountant{} }}

func newPooledAccountant(total float64) *Accountant {
	a := acctPool.Get().(*Accountant)
	a.Reset(total)
	return a
}

// Total returns the meter's privacy budget.
func (m *Meter) Total() float64 { return m.total }

// Spent returns the budget consumed so far (0 when unaudited).
func (m *Meter) Spent() float64 {
	if m.acct == nil {
		return 0
	}
	return m.acct.Spent()
}

// Err returns the first budget or configuration error observed by this meter
// (overspend, non-positive epsilon, invalid exponential-mechanism input).
// Mechanisms return it at the end of Execute so a bad trial fails the run
// instead of crashing a worker.
func (m *Meter) Err() error { return m.err }

func (m *Meter) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Charge records a sequentially composed spend without drawing noise. It
// exists for degenerate branches where an allocated budget slice buys no
// measurement (a forced boundary, a single-cell domain): charging keeps the
// ledger equal to the declared plan, and over-reporting a spend is always
// privacy-safe.
func (m *Meter) Charge(label string, eps float64) { m.charge(label, eps, false) }

// ChargePar is Charge under parallel composition.
func (m *Meter) ChargePar(label string, eps float64) { m.charge(label, eps, true) }

func (m *Meter) charge(label string, eps float64, parallel bool) {
	if m.acct == nil {
		return
	}
	var err error
	if parallel {
		err = m.acct.SpendParallel(label, eps)
	} else {
		err = m.acct.Spend(label, eps)
	}
	if err != nil {
		m.fail(err)
	}
}

// Laplace draws one Laplace(scale) sample and charges eps as a sequential
// spend under label. The caller supplies the scale directly (rather than a
// sensitivity/eps pair) so existing mechanisms keep their exact
// floating-point scale expressions and the noise stream stays bit-identical.
//
//dp:hotpath
func (m *Meter) Laplace(label string, scale, eps float64) float64 {
	m.charge(label, eps, false)
	return Laplace(m.rng, scale)
}

// LaplacePar is Laplace charged under parallel composition: repeated draws
// with the same label within one scope count the maximum once. Partition
// mechanisms use it for draws over disjoint data (AHP clusters, grid cells,
// tree levels), and vector-valued queries use it for their per-component
// draws (each component charge is the whole vector's spend, so the scope
// total is exactly that spend).
//
//dp:hotpath
func (m *Meter) LaplacePar(label string, scale, eps float64) float64 {
	m.charge(label, eps, true)
	return Laplace(m.rng, scale)
}

// LaplaceVecInto writes x plus independent Laplace(scale) noise on each
// element into the caller-provided dst, charging eps once for the whole
// vector-valued query (the components of one vector query compose by its
// total L1 sensitivity, not per component), so plan-execute hot paths add
// vector noise without allocating.
//
//dp:hotpath
func (m *Meter) LaplaceVecInto(label string, dst, x []float64, scale, eps float64) []float64 {
	m.charge(label, eps, false)
	return LaplaceVecInto(m.rng, dst, x, scale)
}

// LaplaceVecParInto is LaplaceVecInto charged under parallel composition:
// the components perturb disjoint data (one count per partition bucket), so
// a single charge covers the scope exactly as repeated LaplacePar calls with
// the same label would — the ledger records the identical spend either way.
//
//dp:hotpath
func (m *Meter) LaplaceVecParInto(label string, dst, x []float64, scale, eps float64) []float64 {
	m.charge(label, eps, true)
	return LaplaceVecInto(m.rng, dst, x, scale)
}

// LaplaceMechanismInto perturbs f with noise calibrated to the given L1
// sensitivity and budget (Definition 2), writing into the caller-provided dst
// (len(f)) and charging eps sequentially. A non-positive epsilon is recorded
// as a meter error and nil returned, with dst left untouched — never filled
// with unperturbed input, so a caller that forgets to check Err cannot
// release noise-free data.
//
//dp:hotpath
func (m *Meter) LaplaceMechanismInto(label string, dst, f []float64, sensitivity, eps float64) []float64 {
	if eps <= 0 {
		m.fail(fmt.Errorf("noise: non-positive epsilon %v in Laplace mechanism", eps))
		return nil
	}
	m.charge(label, eps, false)
	return LaplaceVecInto(m.rng, dst, f, sensitivity/eps)
}

// Geometric draws from the two-sided geometric (discrete Laplace)
// distribution with scale sensitivity/eps and charges eps sequentially. It is
// the integer-valued counterpart of Laplace, used when released counts must
// stay integral. A non-positive epsilon OR sensitivity is recorded as a
// meter error without charging: a zero sensitivity would yield a zero noise
// scale, and silently releasing an unperturbed count while the ledger
// certifies an eps spend is exactly the bug class the meter exists to stop.
//
//dp:hotpath
func (m *Meter) Geometric(label string, sensitivity, eps float64) int64 {
	if eps <= 0 || sensitivity <= 0 {
		m.fail(fmt.Errorf("noise: non-positive epsilon %v or sensitivity %v in geometric mechanism", eps, sensitivity))
		return 0
	}
	m.charge(label, eps, false)
	return Geometric(m.rng, sensitivity/eps)
}

// ExpMechBuf selects an index from scores with the exponential mechanism,
// charging eps sequentially. weights is a caller-provided buffer
// (len(scores), or nil to allocate), so repeated selections allocate
// nothing. Invalid input (empty scores, non-positive epsilon) is recorded as
// a meter error and index 0 returned.
//
//dp:hotpath
func (m *Meter) ExpMechBuf(label string, scores []float64, sensitivity, eps float64, weights []float64) int {
	return m.expMech(label, scores, sensitivity, eps, weights, false)
}

// ExpMechBufPar is ExpMechBuf charged under parallel composition, for
// selections whose scores depend only on disjoint data partitions (e.g.
// PHP's per-interval bisections within one round).
//
//dp:hotpath
func (m *Meter) ExpMechBufPar(label string, scores []float64, sensitivity, eps float64, weights []float64) int {
	return m.expMech(label, scores, sensitivity, eps, weights, true)
}

//dp:hotpath
func (m *Meter) expMech(label string, scores []float64, sensitivity, eps float64, weights []float64, parallel bool) int {
	idx, err := ExpMechBuf(m.rng, scores, sensitivity, eps, weights)
	if err != nil {
		m.fail(err)
		return 0
	}
	m.charge(label, eps, parallel)
	return idx
}

// ResetSub initializes sub — a caller-retained Meter, so hot paths that open
// many short-lived scopes allocate nothing (SF opens one per bucket per
// trial) — as a sub-meter of m with the absolute budget eps, for nested
// budget splits (DAWA handing stage two to GreedyH). The previous contents
// of sub are discarded; it must have been Closed (or never used) before
// reuse. The child's spends accumulate in its own ledger; Close charges the
// parent once, under label, with the child's actual total. With parallel
// set, siblings opened under the same label operate on disjoint data
// partitions, so their closed totals compose by maximum, not sum (SF's
// per-bucket hierarchies), and each child may spend up to the full eps.
func (m *Meter) ResetSub(sub *Meter, label string, eps float64, parallel bool) {
	m.initSub(sub, label, eps, parallel)
}

func (m *Meter) initSub(c *Meter, label string, eps float64, parallel bool) {
	*c = Meter{rng: m.rng, total: eps, parent: m, label: label, parallel: parallel}
	if eps <= 0 {
		c.fail(fmt.Errorf("noise: non-positive sub-meter budget %v for %q", eps, label))
		return
	}
	if m.acct != nil {
		c.acct = newPooledAccountant(eps)
	}
}

// Close finishes a sub-meter: the parent is charged the child's spent total
// under the child's label (sequentially or in parallel, as opened), the
// child's sticky error propagates, and the child's pooled accountant is
// released. Closing a top-level meter or closing twice is a no-op.
func (m *Meter) Close() {
	if m.parent == nil || m.closed {
		return
	}
	m.closed = true
	if m.err != nil {
		m.parent.fail(m.err)
	}
	if m.acct == nil {
		return
	}
	m.parent.charge(m.label, m.acct.Spent(), m.parallel)
	releaseAccountant(m.acct)
	m.acct = nil
}

// Release returns a top-level audited meter's accountant to the pool. The
// meter must not be used afterwards.
func (m *Meter) Release() {
	if m.acct != nil {
		releaseAccountant(m.acct)
		m.acct = nil
	}
}

func releaseAccountant(a *Accountant) { acctPool.Put(a) }

// SpendKind classifies how spends under one ledger label compose.
type SpendKind uint8

const (
	// Sequential spends add up (sequential composition).
	Sequential SpendKind = iota
	// Parallel spends on disjoint partitions count their maximum once.
	Parallel
)

// PlanEntry declares one ledger label a mechanism may emit. A Label ending in
// '*' matches every label with that prefix (per-level labels like "level3").
type PlanEntry struct {
	Label string
	Kind  SpendKind
}

// Plan is a mechanism's declared composition plan: the complete set of ledger
// labels its Execute may charge on the trial's meter and how each composes
// (a sub-meter's spends fold into the one charge its Close makes under the
// sub-meter's label). The audit rejects any ledger entry not covered by the
// plan, so an undeclared spend — the classic silent budget bug — is a test
// failure. A label may appear under both kinds when different code paths
// compose it differently.
type Plan []PlanEntry

func (p Plan) allows(label string, parallel bool) bool {
	for _, e := range p {
		if (e.Kind == Parallel) != parallel {
			continue
		}
		if strings.HasSuffix(e.Label, "*") {
			if strings.HasPrefix(label, e.Label[:len(e.Label)-1]) {
				return true
			}
		} else if e.Label == label {
			return true
		}
	}
	return false
}

// VerifyPlan checks every ledger entry against the declared plan.
func VerifyPlan(ledger []Spend, plan Plan) error {
	for _, s := range ledger {
		if !plan.allows(s.Label, s.Parallel) {
			kind := "sequential"
			if s.Parallel {
				kind = "parallel"
			}
			return fmt.Errorf("noise: %w: ledger entry %q (%s, eps=%v) not declared", ErrCompositionViolation, s.Label, kind, s.Eps)
		}
	}
	return nil
}

// Audit verifies that the meter's recorded spends total exactly its budget
// (within the accountant's 1e-9 tolerance — both over- AND under-spend fail,
// since an under-spend means the mechanism adds more noise than its budget
// justifies, invalidating utility comparisons) and, when a plan is given,
// that the ledger matches it. Any sticky draw/charge error fails the audit.
func (m *Meter) Audit(plan Plan) error {
	if m.err != nil {
		return m.err
	}
	if m.acct == nil {
		return fmt.Errorf("noise: meter was not built with NewAuditedMeter")
	}
	spent := m.acct.Spent()
	if math.Abs(spent-m.total) > budgetTolerance {
		return fmt.Errorf("noise: %w: ledger sums to %v, budget is %v (diff %v)", ErrCompositionViolation, spent, m.total, spent-m.total)
	}
	if plan != nil {
		if err := VerifyPlan(m.acct.Ledger(), plan); err != nil {
			return err
		}
	}
	return nil
}
