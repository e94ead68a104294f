// A CompositionPlan built through a helper cannot be read statically, so
// its mechanism gets only the sum check, as Meter.Audit does with a nil
// plan. No label finding here; the spends still sum to exactly eps.
package algo

import "dpbench/internal/noise"

// DynMech builds its plan through a helper. No plan can be read, so, as at
// run time with a nil plan, only the sum is checked: no label finding.
type DynMech struct{}

// CompositionPlan delegates.
func (d *DynMech) CompositionPlan() noise.Plan { return d.buildPlan() }

func (d *DynMech) buildPlan() noise.Plan {
	return noise.Plan{{Label: "computed", Kind: noise.Sequential}}
}

type dynPlan struct {
	eps float64
}

// Plan keeps the whole budget.
func (d *DynMech) Plan(n int, eps float64) (*dynPlan, error) {
	return &dynPlan{eps: eps}, nil
}

// Execute spends under a label only the dynamic plan declares, and another.
func (p *dynPlan) Execute(m *noise.Meter, out []float64) error {
	m.Laplace("computed", 1, p.eps/2)
	m.Laplace("anything-goes", 1, p.eps/2)
	return m.Err()
}
