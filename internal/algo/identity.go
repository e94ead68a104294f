package algo

import (
	"math/rand"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Identity is the data-independent baseline: independent Laplace(1/eps) noise
// on every cell count (Section 3.1). It is the direct application of the
// Laplace mechanism to the histogram function, whose sensitivity is 1.
type Identity struct{}

func init() { Register("IDENTITY", func() Algorithm { return Identity{} }) }

// Name implements Algorithm.
func (Identity) Name() string { return "IDENTITY" }

// Supports implements Algorithm; Identity works in any dimensionality.
func (Identity) Supports(k int) bool { return k >= 1 }

// DataDependent implements Algorithm.
func (Identity) DataDependent() bool { return false }

// Run implements Algorithm.
func (a Identity) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(a, x, w, eps, rng)
}

// identityPlan needs nothing beyond the data reference: a trial is one
// vector-noise pass straight into the output buffer.
type identityPlan struct {
	data []float64
	eps  float64
}

// Plan implements Algorithm.
func (Identity) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	return &identityPlan{data: x.Data, eps: eps}, nil
}

//dp:hotpath
func (p *identityPlan) Execute(m *noise.Meter, out []float64) error {
	m.LaplaceMechanismInto("cells", out, p.data, 1, p.eps)
	return m.Err()
}

// CompositionPlan implements Planner. The histogram is one vector-valued
// query with L1 sensitivity 1, so the full budget is a single sequential
// spend.
func (Identity) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "cells", Kind: noise.Sequential}}
}

// Uniform is the data-dependent baseline: it spends the whole budget
// estimating the scale and spreads it uniformly, equivalent to an equi-width
// histogram with a single domain-wide bucket (Section 3.1).
type Uniform struct{}

func init() { Register("UNIFORM", func() Algorithm { return Uniform{} }) }

// Name implements Algorithm.
func (Uniform) Name() string { return "UNIFORM" }

// Supports implements Algorithm.
func (Uniform) Supports(k int) bool { return k >= 1 }

// DataDependent implements Algorithm. Uniform learns (only) the scale from
// the data, which the paper marks as weakly data-dependent.
func (Uniform) DataDependent() bool { return true }

// Run implements Algorithm.
func (a Uniform) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(a, x, w, eps, rng)
}

// uniformPlan amortizes the only data access Uniform performs — the exact
// scale — so a trial is one noise draw and a spread.
type uniformPlan struct {
	scale float64
	eps   float64
}

// Plan implements Algorithm.
func (Uniform) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	return &uniformPlan{scale: x.Scale(), eps: eps}, nil
}

//dp:hotpath
func (p *uniformPlan) Execute(m *noise.Meter, out []float64) error {
	total := p.scale + m.Laplace("total", 1/p.eps, p.eps)
	if total < 0 {
		total = 0
	}
	uniformSpread(out, 0, len(out), total)
	return m.Err()
}

// CompositionPlan implements Planner: one scale query (sensitivity 1) at
// full budget.
func (Uniform) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "total", Kind: noise.Sequential}}
}
