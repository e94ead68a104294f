package algo

import (
	"math/rand"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// WithSamplerVersion returns a view of a whose plans pin the given sampler
// version: every Execute switches the supplied meter to v for the duration
// of the trial, so release.WithSampler callers get the fast (or legacy)
// noise stream regardless of how the meter was built. Wrapping with
// SamplerLegacy returns a unchanged — the legacy default costs nothing.
func WithSamplerVersion(a Algorithm, v noise.SamplerVersion) Algorithm {
	if v == noise.SamplerLegacy {
		return a
	}
	return &samplerVersioned{inner: a, v: v}
}

// samplerVersioned pins a sampler version on an algorithm's plans. It
// delegates everything else to the wrapped algorithm; options that need the
// concrete mechanism type unwrap it via Unwrap.
type samplerVersioned struct {
	inner Algorithm
	v     noise.SamplerVersion
}

// Unwrap returns the wrapped algorithm, so configuration helpers can reach
// the concrete mechanism type behind the sampler pin.
func (s *samplerVersioned) Unwrap() Algorithm { return s.inner }

// Name implements Algorithm.
func (s *samplerVersioned) Name() string { return s.inner.Name() }

// Supports implements Algorithm.
func (s *samplerVersioned) Supports(k int) bool { return s.inner.Supports(k) }

// DataDependent implements Algorithm.
func (s *samplerVersioned) DataDependent() bool { return s.inner.DataDependent() }

// Plan implements Algorithm: the inner plan is wrapped so Execute carries
// the pinned sampler version onto its meter.
func (s *samplerVersioned) Plan(x *vec.Vector, w *workload.Workload, eps float64) (Plan, error) {
	p, err := s.inner.Plan(x, w, eps)
	if err != nil {
		return nil, err
	}
	return &samplerPlan{p: p, v: s.v}, nil
}

// Run implements Algorithm.
func (s *samplerVersioned) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(s, x, w, eps, rng)
}

// CompositionPlan implements Planner by delegation; a wrapped mechanism
// without a declared plan reports nil, which the audit treats as
// "sum check only" exactly as for an unwrapped one.
func (s *samplerVersioned) CompositionPlan() noise.Plan {
	if pl, ok := s.inner.(Planner); ok {
		return pl.CompositionPlan()
	}
	return nil
}

// samplerPlan pins the sampler version for one plan execution.
type samplerPlan struct {
	p Plan
	v noise.SamplerVersion
}

// Execute implements Plan: the meter runs the trial under the pinned
// version and is restored afterwards, so a caller-owned meter can execute
// differently-pinned plans in sequence.
//
//dp:hotpath
func (sp *samplerPlan) Execute(m *noise.Meter, out []float64) error {
	prev := m.Sampler()
	m.SetSampler(sp.v)
	defer m.SetSampler(prev)
	return sp.p.Execute(m, out)
}
