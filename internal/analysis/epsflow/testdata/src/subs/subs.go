// Fixtures for sub-meter closes. A sub-meter's spend reaches the root
// meter, and so the audit, only through Close, so a sub-meter that is still
// open when Execute returns is a finding on that path, and so is the
// under-spend it leaves behind. A path that returns a non-nil error is
// exempt, as it is from the audit.
package algo

import "dpbench/internal/noise"

// SubNeverMech never closes its sub-meter.
type SubNeverMech struct{}

// Plan keeps the whole budget.
func (g *SubNeverMech) Plan(n int, eps float64) (*subNeverPlan, error) {
	return &subNeverPlan{eps: eps}, nil
}

type subNeverPlan struct {
	eps float64
}

// Execute opens "s1", spends in it, and returns.
func (p *subNeverPlan) Execute(m *noise.Meter, out []float64) error {
	var sub noise.Meter
	m.ResetSub(&sub, "s1", p.eps, false)
	sub.Laplace("x", 1, p.eps)
	return m.Err() // want `SubNeverMech: sub-meter "s1" is never closed on this path` `SubNeverMech under-spends`
}

// SubBranchMech closes its sub-meter on one branch only.
type SubBranchMech struct{}

// Plan records a data-dependent branch.
func (g *SubBranchMech) Plan(n int, eps float64) (*subBranchPlan, error) {
	return &subBranchPlan{eps: eps, cond: n > 1}, nil
}

type subBranchPlan struct {
	eps  float64
	cond bool
}

// Execute leaks "s2" when cond is false.
func (p *subBranchPlan) Execute(m *noise.Meter, out []float64) error {
	var sub noise.Meter
	m.ResetSub(&sub, "s2", p.eps, false)
	sub.Laplace("x", 1, p.eps)
	if p.cond {
		sub.Close()
	}
	return m.Err() // want `SubBranchMech: sub-meter "s2" is never closed on this path` `SubBranchMech under-spends`
}

// SubEarlyMech returns early, with a nil error, after spending in the
// sub-meter and before closing it.
type SubEarlyMech struct{}

// Plan records a data-dependent bailout.
func (g *SubEarlyMech) Plan(n int, eps float64) (*subEarlyPlan, error) {
	return &subEarlyPlan{eps: eps, bail: n > 1}, nil
}

type subEarlyPlan struct {
	eps  float64
	bail bool
}

// Execute leaks "s3" on the bailout.
func (p *subEarlyPlan) Execute(m *noise.Meter, out []float64) error {
	var sub noise.Meter
	m.ResetSub(&sub, "s3", p.eps, false)
	sub.Laplace("x", 1, p.eps)
	if p.bail {
		return nil // want `SubEarlyMech: sub-meter "s3" is never closed on this path` `SubEarlyMech under-spends`
	}
	sub.Close()
	return m.Err()
}

// SubReopenMech re-arms one sub-meter per iteration without closing it.
type SubReopenMech struct{}

// Plan keeps the whole budget.
func (g *SubReopenMech) Plan(n int, eps float64) (*subReopenPlan, error) {
	return &subReopenPlan{eps: eps}, nil
}

type subReopenPlan struct {
	eps float64
}

// Execute leaks each iteration's "bucket".
func (p *subReopenPlan) Execute(m *noise.Meter, out []float64) error {
	var sub noise.Meter
	for i := 0; i < 3; i++ { // want `sub-meter "bucket" opened in loop body is not closed before the iteration ends`
		m.ResetSub(&sub, "bucket", p.eps, true)
		sub.LaplacePar("x", 1, p.eps)
	}
	return m.Err()
}

// SubCleanMech closes every sub-meter on every path: with a defer, on both
// branches, before an error return, once per iteration (the SF shape), and
// after a helper spent through it.
type SubCleanMech struct{}

// Plan splits the budget over the five scopes and keeps an error.
func (g *SubCleanMech) Plan(err error, eps float64) (*subCleanPlan, error) {
	return &subCleanPlan{u: eps / 5, cond: eps > 1, err: err}, nil
}

type subCleanPlan struct {
	u    float64
	cond bool
	err  error
}

// Execute closes "s4" by defer, "s6" on both arms, "s7" before an error
// return, "bucket" per iteration, and "s9" after spendInto.
func (p *subCleanPlan) Execute(m *noise.Meter, out []float64) error {
	var s4 noise.Meter
	m.ResetSub(&s4, "s4", p.u, false)
	defer s4.Close()
	s4.Laplace("x", 1, p.u)

	var s6 noise.Meter
	m.ResetSub(&s6, "s6", p.u, false)
	if p.cond {
		s6.Laplace("x", 1, p.u)
		s6.Close()
	} else {
		s6.Charge("x", p.u)
		s6.Close()
	}

	var s7 noise.Meter
	m.ResetSub(&s7, "s7", p.u, false)
	if p.err != nil {
		s7.Close()
		return p.err
	}
	s7.Laplace("x", 1, p.u)
	s7.Close()

	var sub noise.Meter
	for i := 0; i < 3; i++ {
		m.ResetSub(&sub, "bucket", p.u, true)
		sub.LaplacePar("x", 1, p.u)
		sub.Close()
	}

	var s9 noise.Meter
	m.ResetSub(&s9, "s9", p.u, false)
	spendInto(&s9, p.u)
	s9.Close()
	return m.Err()
}

func spendInto(sub *noise.Meter, u float64) { sub.Laplace("x", 1, u) }
