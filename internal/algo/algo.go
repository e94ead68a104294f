// Package algo implements the 17 differentially private release mechanisms
// evaluated by DPBench (Table 1 and Appendix B of the paper) behind a common
// interface. Every mechanism consumes a data vector x, a workload W (used
// only by workload-aware mechanisms), a privacy budget epsilon, and a seeded
// RNG, and produces an estimated data vector x-hat from which any range
// query can be answered by summation.
package algo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Algorithm is a differentially private data-release mechanism.
type Algorithm interface {
	// Name returns the benchmark identifier, e.g. "DAWA" or "MWEM*".
	Name() string
	// Supports reports whether the mechanism handles k-dimensional data.
	Supports(k int) bool
	// DataDependent reports whether the mechanism's error distribution
	// depends on the input data (Section 3.1).
	DataDependent() bool
	// Run releases an estimate of x under epsilon-differential privacy.
	// The returned slice has one entry per cell of x. Run is exactly
	// Plan(x, w, eps) followed by one Execute.
	Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error)
	// Plan prepares an executable release plan for the cell (x, w, eps),
	// performing all deterministic structure building up front so repeated
	// trials pay only for noise and inference. Plans draw no randomness and
	// spend no budget; Execute may run concurrently on one plan.
	Plan(x *vec.Vector, w *workload.Workload, eps float64) (Plan, error)
}

// Planner is implemented by mechanisms that declare their budget-composition
// plan: the complete set of ledger labels their plans' Execute may charge on
// the trial's meter, and how each composes. The audit rejects any spend
// outside the plan, and epsflow checks every charge against a plan written
// as a literal.
type Planner interface {
	CompositionPlan() noise.Plan
}

// RunAudited executes one trial through a ledger-backed meter and asserts
// afterwards that the mechanism spent exactly eps (within 1e-9; both over-
// and under-spend fail) and that the ledger matches the mechanism's declared
// composition plan. It is the enforcement point the paper's composition
// claims (Section 2.1, Table 1) rest on. It is Plan followed by
// ExecuteAudited: with audit mode on, the experiment runner and the trainer
// reach the same audit for every trial through core.executeTrial ->
// ExecuteAudited, and release.RunAudited exposes this function.
func RunAudited(a Algorithm, x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	p, err := a.Plan(x, w, eps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, x.N())
	if err := ExecuteAudited(a, p, eps, rng, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SideInfoUser is implemented by mechanisms that consume the true scale as
// public side information (MWEM, SF, UGrid, AGrid — Principle 7). The
// benchmark's Rside repair wraps them so scale is estimated privately
// instead.
type SideInfoUser interface {
	// SetScaleEstimator switches the mechanism from using the true scale
	// to spending the fraction rho of its budget on a noisy estimate.
	SetScaleEstimator(rho float64)
}

// ErrUnknownAlgorithm marks a registry lookup for a name that is not
// registered. The public dpbench/release package re-exports it and the
// serving layer maps it to HTTP 404.
var ErrUnknownAlgorithm = errors.New("unknown algorithm")

// registry maps names to constructors for the default configurations.
var registry = map[string]func() Algorithm{}

// Register adds a constructor to the global registry; it panics on duplicate
// names (a programming error).
func Register(name string, fn func() Algorithm) {
	if _, dup := registry[name]; dup {
		panic("algo: duplicate registration of " + name)
	}
	registry[name] = fn
}

// New returns a fresh instance of the named algorithm in its default
// configuration.
func New(name string) (Algorithm, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("algo: %w: %q", ErrUnknownAlgorithm, name)
	}
	return fn(), nil
}

// Names returns the sorted list of registered algorithm names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns fresh default instances of every registered algorithm that
// supports k-dimensional data. A constructor error here means a corrupted
// registry — a programming error — so it panics with the offending name
// instead of silently dropping the mechanism from every benchmark roster.
func All(k int) []Algorithm {
	var out []Algorithm
	for _, n := range Names() {
		a, err := New(n)
		if err != nil {
			panic("algo: registry constructor for " + n + ": " + err.Error())
		}
		if a.Supports(k) {
			out = append(out, a)
		}
	}
	return out
}

// labelTable precomputes "<prefix><i>" ledger labels so metered draw sites
// perform no string formatting on the hot path.
func labelTable(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

var (
	partLevelLabels = labelTable("part-level", 64)
	splitLabels     = labelTable("split", 64)
	kdLabels        = labelTable("kd", 64)
)

// idxLabel indexes a label table, collapsing out-of-range depths (unreachable
// for any realistic domain) onto the last entry.
func idxLabel(table []string, i int) string {
	if i >= 0 && i < len(table) {
		return table[i]
	}
	return table[len(table)-1]
}

// validate checks the common preconditions shared by all mechanisms.
func validate(x *vec.Vector, eps float64) error {
	if x == nil || len(x.Data) == 0 {
		return fmt.Errorf("algo: empty data vector")
	}
	if eps <= 0 {
		return fmt.Errorf("algo: non-positive epsilon %v", eps)
	}
	return nil
}

// uniformSpread writes total spread evenly over cells[lo:hi) of out.
func uniformSpread(out []float64, lo, hi int, total float64) {
	per := total / float64(hi-lo)
	for i := lo; i < hi; i++ {
		out[i] = per
	}
}
