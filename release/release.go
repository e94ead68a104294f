// Package release is the public registry of dpbench's differentially
// private release mechanisms and the Plan/Execute machinery to run them.
//
// Mechanisms are obtained from the registry by benchmark name:
//
//	m, err := release.New("DAWA")
//	est, err := release.Run(m, x, w, 0.1, rng)
//
// Construction takes functional options instead of positional parameters, so
// a configured variant reads as what it changes:
//
//	m, err := release.New("MWEM",
//		release.WithMWEMRounds(20),
//		release.WithSideInfoRepair(0.05))
//
// For repeated trials on one (data, workload, epsilon) cell, plan once and
// execute many times — structure building is amortized out of the trial
// loop, and one Plan may be executed concurrently from many goroutines:
//
//	p, err := release.NewPlan(m, x, w, eps)
//	err = p.Execute(privacy.NewMeter(eps, rng), out)
//
// Mechanism and Plan alias the internal interfaces, so values obtained here
// are exactly what the benchmark runner, the audit machinery, and the
// serving layer consume.
package release

import (
	"fmt"
	"math/rand"

	"dpbench/internal/algo"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
	"dpbench/privacy"
)

// Histogram is a non-negative count vector over a 1D or 2D domain — the
// private input x every mechanism releases an estimate of. Construct with
// dpbench.NewHistogram or a Dataset's generator.
type Histogram = vec.Vector

// Workload is a set of axis-aligned range queries over a fixed domain.
// Construct with the dpbench package's workload constructors (Prefix,
// RandomRange, ...) or build one query-by-query with AddRange/AddRect.
type Workload = workload.Workload

// Mechanism is a differentially private data-release mechanism: it consumes
// a histogram x, a workload (used only by workload-aware mechanisms) and a
// privacy budget epsilon, and releases an estimated histogram from which any
// range query can be answered by summation.
type Mechanism = algo.Algorithm

// Plan is a prepared release plan bound to one (x, w, eps) cell. Execute
// runs one independent trial, drawing all noise through the supplied meter;
// it is safe for concurrent use, so one plan can serve many goroutines.
type Plan = algo.Plan

// ErrUnknownMechanism marks a registry lookup for an unregistered name,
// matched with errors.Is. The serving layer maps it to HTTP 404.
var ErrUnknownMechanism = algo.ErrUnknownAlgorithm

// Option configures a mechanism at construction time. Options return an
// error when they do not apply to the mechanism being built, so a
// misconfiguration fails loudly instead of silently running defaults.
type Option func(Mechanism) error

// New returns a fresh instance of the named mechanism in its default
// (paper) configuration, with any options applied. Unknown names fail with
// an error wrapping ErrUnknownMechanism; inapplicable options fail with an
// error naming the mechanism and the option.
func New(name string, opts ...Option) (Mechanism, error) {
	a, err := algo.New(name)
	if err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, fmt.Errorf("release: constructing %s: %w", name, err)
		}
	}
	return a, nil
}

// Names returns the sorted list of registered mechanism names.
func Names() []string { return algo.Names() }

// All returns fresh default instances of every registered mechanism that
// supports k-dimensional data.
func All(k int) []Mechanism { return algo.All(k) }

// WithSideInfoRepair applies the paper's Rside repair (Principle 7): instead
// of consuming the true dataset scale as free public side information, the
// mechanism spends the fraction rho of its budget on a private estimate.
// Fails for mechanisms that use no side information.
func WithSideInfoRepair(rho float64) Option {
	return func(m Mechanism) error {
		if rho <= 0 || rho >= 1 {
			return fmt.Errorf("side-info repair fraction must be in (0,1), got %v", rho)
		}
		s, ok := m.(algo.SideInfoUser)
		if !ok {
			return fmt.Errorf("%s consumes no side information; WithSideInfoRepair does not apply", m.Name())
		}
		s.SetScaleEstimator(rho)
		return nil
	}
}

// WithMWEMRounds fixes MWEM's round count T. Applies to MWEM variants only.
func WithMWEMRounds(t int) Option {
	return func(m Mechanism) error {
		mw, ok := m.(*algo.MWEM)
		if !ok {
			return fmt.Errorf("%s is not MWEM; WithMWEMRounds does not apply", m.Name())
		}
		if t <= 0 {
			return fmt.Errorf("MWEM round count must be positive, got %d", t)
		}
		mw.T = t
		mw.TFromSignal = nil
		return nil
	}
}

// WithMWEMProfile derives MWEM's round count from the signal strength
// eps*scale through a trained, data-independent profile (the MWEM* repair;
// train one with dpbench.TrainMWEM). Applies to MWEM variants only.
func WithMWEMProfile(profile func(signal float64) int) Option {
	return func(m Mechanism) error {
		mw, ok := m.(*algo.MWEM)
		if !ok {
			return fmt.Errorf("%s is not MWEM; WithMWEMProfile does not apply", m.Name())
		}
		if profile == nil {
			return fmt.Errorf("MWEM profile must be non-nil")
		}
		mw.T = 0
		mw.TFromSignal = profile
		return nil
	}
}

// WithMWEMUpdateSweeps sets the number of measurement-history replay sweeps
// MWEM applies per round. Applies to MWEM variants only.
func WithMWEMUpdateSweeps(k int) Option {
	return func(m Mechanism) error {
		mw, ok := m.(*algo.MWEM)
		if !ok {
			return fmt.Errorf("%s is not MWEM; WithMWEMUpdateSweeps does not apply", m.Name())
		}
		if k <= 0 {
			return fmt.Errorf("MWEM update sweeps must be positive, got %d", k)
		}
		mw.UpdateSweeps = k
		return nil
	}
}

// WithAHPParams fixes AHP's clustering parameters (rho, the budget fraction
// spent on the noisy histogram used for clustering, and eta, the
// zero-threshold). Applies to AHP variants only.
func WithAHPParams(rho, eta float64) Option {
	return func(m Mechanism) error {
		ah, ok := m.(*algo.AHP)
		if !ok {
			return fmt.Errorf("%s is not AHP; WithAHPParams does not apply", m.Name())
		}
		if rho <= 0 || rho >= 1 {
			return fmt.Errorf("AHP rho must be in (0,1), got %v", rho)
		}
		if eta < 0 {
			return fmt.Errorf("AHP eta must be non-negative, got %v", eta)
		}
		ah.Rho = rho
		ah.Eta = eta
		return nil
	}
}

// NewPlan prepares an executable release plan for the cell (x, w, eps):
// all deterministic structure building happens here, with no randomness and
// no privacy cost, so repeated trials pay only for noise and inference.
func NewPlan(m Mechanism, x *Histogram, w *Workload, eps float64) (Plan, error) {
	return m.Plan(x, w, eps)
}

// Run releases an estimate of x under eps-differential privacy on the given
// RNG stream. It is exactly NewPlan followed by one Plan.Execute.
func Run(m Mechanism, x *Histogram, w *Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return m.Run(x, w, eps, rng)
}

// RunAudited is Run through a ledger-backed meter: after the trial it
// verifies that the mechanism's recorded spends sum to exactly eps and match
// its declared composition plan, failing with an error wrapping
// privacy.ErrBudgetExhausted or privacy.ErrCompositionViolation otherwise.
// Output is bit-identical to Run on the same RNG stream.
func RunAudited(m Mechanism, x *Histogram, w *Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return algo.RunAudited(m, x, w, eps, rng)
}

// Composition kinds reported by Info.
const (
	// CompositionSequential marks mechanisms whose declared budget spends
	// all compose sequentially (they add up).
	CompositionSequential = "sequential"
	// CompositionParallel marks mechanisms whose declared spends all apply
	// to disjoint data partitions (they compose by maximum).
	CompositionParallel = "parallel"
	// CompositionMixed marks mechanisms that declare both kinds.
	CompositionMixed = "mixed"
	// CompositionUndeclared marks mechanisms without a declared plan.
	CompositionUndeclared = "undeclared"
)

// Info describes one registered mechanism for listings (dpbench -list, the
// serve layer's /v1/mechanisms endpoint).
type Info struct {
	// Name is the benchmark identifier, e.g. "DAWA" or "MWEM*".
	Name string `json:"name"`
	// Dims lists the supported dimensionalities (subset of {1, 2}).
	Dims []int `json:"dims"`
	// DataDependent reports whether the mechanism's error distribution
	// depends on the input data (Section 3.1 of the paper).
	DataDependent bool `json:"data_dependent"`
	// Composition summarizes the mechanism's declared budget-composition
	// plan: "sequential", "parallel", or "mixed".
	Composition string `json:"composition"`
}

// List describes every registered mechanism, sorted by name.
func List() []Info {
	descs := algo.Describe()
	out := make([]Info, len(descs))
	for i, d := range descs {
		out[i] = Info(d)
	}
	return out
}

// compile-time check that the privacy alias wiring stays sound: a Plan
// executes against exactly the meter type the privacy package hands out.
var _ = func(p Plan, m *privacy.Meter, out []float64) error { return p.Execute(m, out) }
