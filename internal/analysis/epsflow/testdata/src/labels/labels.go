// Fixtures for epsflow's label check. Meter.Audit compares every ledger
// entry of Execute's root meter with the mechanism's CompositionPlan by
// label and by kind; epsflow does the same on every path: for each charge
// on the root meter, each sub-meter that closes into it, each
// tree.MeasureInto on it, and each //dp:spends function called with it.
// An undeclared label is reported where it is written. Every mechanism
// here charges exactly eps, so only label findings remain.
package algo

import (
	"dpbench/internal/noise"
	"dpbench/internal/tree"
)

// Label tables: the depth-indexed wildcard idiom from internal/algo.
var (
	lvlLabels = labelTable("level", 8)
	badLabels = labelTable("bad", 4)
	kdLabels  = labelTable("kd", 8)
)

func labelTable(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + string(rune('0'+i))
	}
	return out
}

func idxLabel(table []string, i int) string {
	if i >= 0 && i < len(table) {
		return table[i]
	}
	return table[len(table)-1]
}

// GoodMech declares a plain label and a wildcard level family.
type GoodMech struct{}

// CompositionPlan declares the labels GoodMech may spend under.
func (g *GoodMech) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "level*", Kind: noise.Parallel},
	}
}

// OtherMech declares a label GoodMech does not: a label in another
// mechanism's plan is still a finding for GoodMech.
type OtherMech struct{}

// CompositionPlan declares OtherMech's only label.
func (o *OtherMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "other-only", Kind: noise.Sequential}}
}

type goodPlan struct {
	u float64
}

// Plan hands each of the eight charges an eighth of the budget.
func (g *GoodMech) Plan(n int, eps float64) (*goodPlan, error) {
	return &goodPlan{u: eps / 8}, nil
}

// Execute charges the root meter directly, through a sub-meter, through a
// type built in a helper, and through a helper no other code calls.
func (p *goodPlan) Execute(m *noise.Meter, out []float64) error {
	m.Laplace("scale", 1, p.u)      // declared: clean
	m.LaplacePar("level3", 1, p.u)  // wildcard match: clean
	m.Charge("rogue", p.u)          // want `label "rogue" \(sequential, from Charge\) is not declared in GoodMech's CompositionPlan`
	m.Laplace("other-only", 1, p.u) // want `label "other-only" \(sequential, from Laplace\) is not declared in GoodMech's CompositionPlan`
	var sub noise.Meter
	m.ResetSub(&sub, "level1", p.u, true)
	sub.Laplace("inner", 1, p.u) // folded into "level1" by Close: not compared
	sub.Close()
	newScratch().Spend(m, p.u)
	helper(m, p.u)
	return m.Err()
}

// scratch is built in newScratch, two calls away from Execute.
type scratch struct{}

func newScratch() *scratch { return &scratch{} }

// Spend charges for whichever Execute inlines it.
func (s *scratch) Spend(m *noise.Meter, u float64) {
	m.Laplace("scale", 1, u) // clean
	m.Laplace("stray", 1, u) // want `label "stray" \(sequential, from Laplace\) is not declared in GoodMech's CompositionPlan`
}

// helper is checked against the plan of the Execute that calls it, not
// against every plan in the package.
func helper(m *noise.Meter, u float64) {
	m.Charge("nowhere", u) // want `label "nowhere" \(sequential, from Charge\) is not declared in GoodMech's CompositionPlan`
}

// FamilyMech charges labelTable families, which check as "prefix*"
// against the plan's wildcards.
type FamilyMech struct{}

// CompositionPlan declares the level family only.
func (f *FamilyMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}, {Label: "scale", Kind: noise.Sequential}}
}

type familyPlan struct {
	u     float64
	depth int
}

// Plan hands each of the three charges a third of the budget.
func (f *FamilyMech) Plan(depth int, eps float64) (*familyPlan, error) {
	return &familyPlan{u: eps / 3, depth: depth}, nil
}

// Execute resolves families through idxLabel, directly and via a local.
func (p *familyPlan) Execute(m *noise.Meter, out []float64) error {
	m.LaplacePar(idxLabel(lvlLabels, p.depth), 1, p.u) // covered by "level*": clean
	lab := idxLabel(lvlLabels, p.depth+1)
	m.LaplacePar(lab, 1, p.u)                   // same, via a local: clean
	m.Charge(idxLabel(badLabels, p.depth), p.u) // want `label family "bad\*" \(sequential, from Charge\) is not declared in FamilyMech's CompositionPlan`
	return m.Err()
}

// ForwardMech passes labels into helpers: a constant is checked where it is
// written, however many helpers it passes through.
type ForwardMech struct{}

// CompositionPlan declares one sequential label.
func (f *ForwardMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "scale", Kind: noise.Sequential}}
}

type forwardPlan struct {
	u     float64
	dyn   string
	names []string
	i     int
}

// Plan keeps a label that is not a constant.
func (f *ForwardMech) Plan(dyn string, i int, eps float64) (*forwardPlan, error) {
	return &forwardPlan{u: eps / 8, dyn: dyn, i: i}, nil
}

// Execute forwards constant and computed labels.
func (p *forwardPlan) Execute(m *noise.Meter, out []float64) error {
	spendVia(m, "scale", p.u)  // declared at the call site: clean
	spendVia(m, "rogue2", p.u) // want `label "rogue2" \(sequential, from Laplace\) is not declared in ForwardMech's CompositionPlan`
	spendVia(m, p.dyn, p.u)
	relayVia(m, "scale", p.u)  // clean through two hops
	relayVia(m, "rogue3", p.u) // want `label "rogue3" \(sequential, from Laplace\) is not declared in ForwardMech's CompositionPlan`
	dynamicLabel(m, p.names, p.i, p.u)
	allowedDynamic(m, p.dyn, p.u)
	m.Charge("scale", p.u)
	return m.Err()
}

// spendVia forwards its label parameter to a spend.
func spendVia(m *noise.Meter, label string, u float64) {
	m.Laplace(label, 1, u) // want `the label passed to Laplace is neither a string constant nor a labelTable family, so it cannot be checked against ForwardMech's CompositionPlan`
}

// relayVia forwards through two hops.
func relayVia(m *noise.Meter, label string, u float64) {
	spendVia(m, label, u)
}

// dynamicLabel indexes a slice that is not a label table.
func dynamicLabel(m *noise.Meter, labels []string, i int, u float64) {
	m.Laplace(labels[i], 1, u) // want `the label passed to Laplace is neither a string constant nor a labelTable family`
}

// allowedDynamic shows the audited escape hatch; the grant is used.
func allowedDynamic(m *noise.Meter, prefix string, u float64) {
	//lint:allow epsflow fixture: the runtime audit validates this computed label
	m.Laplace(prefix+"x", 1, u)
}

// KindMech covers LaplaceVecParInto and ExpMechBuf, the kind half of
// the rule, and the labels sub-meters close under.
type KindMech struct{}

// CompositionPlan declares a parallel, a sequential and a sub-meter label.
func (k *KindMech) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "counts", Kind: noise.Parallel},
		{Label: "select", Kind: noise.Sequential},
		{Label: "stage2", Kind: noise.Sequential},
	}
}

type kindPlan struct {
	u float64
}

// Plan hands each of the six charges a sixth of the budget.
func (k *KindMech) Plan(n int, eps float64) (*kindPlan, error) {
	return &kindPlan{u: eps / 6}, nil
}

// Execute draws through LaplaceVecParInto and ExpMechBuf, charges a
// sequential-only label in parallel, and arms two sub-meters in place.
func (p *kindPlan) Execute(m *noise.Meter, out []float64) error {
	m.LaplaceVecParInto("counts", out, out, 1/p.u, p.u)
	m.LaplaceVecParInto("countz", out, out, 1/p.u, p.u) // want `label "countz" \(parallel, from LaplaceVecParInto\) is not declared in KindMech's CompositionPlan`
	m.ExpMechBuf("selekt", out, 1, p.u, nil)            // want `label "selekt" \(sequential, from ExpMechBuf\) is not declared in KindMech's CompositionPlan`
	m.LaplacePar("select", 1, p.u)                      // want `label "select" \(parallel, from LaplacePar\) is not declared in KindMech's CompositionPlan, which declares it sequential`
	var sub noise.Meter
	m.ResetSub(&sub, "stage2", p.u, false)
	sub.Laplace("x", 1, p.u)
	sub.Close()
	m.ResetSub(&sub, "stage3", p.u, false) // want `label "stage3" \(sequential, from ResetSub\) is not declared in KindMech's CompositionPlan`
	sub.Laplace("x", 1, p.u)
	sub.Close()
	return m.Err()
}

// TreeMech measures a tree on its root meter, which charges the parallel
// "level*" family its plan leaves out.
type TreeMech struct{}

// CompositionPlan forgets the tree levels.
func (t *TreeMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "scale", Kind: noise.Sequential}}
}

type treeMechPlan struct {
	flat   *tree.Flat
	budget []float64
}

// Plan spreads the budget evenly over the tree's levels.
func (t *TreeMech) Plan(n int, eps float64) (*treeMechPlan, error) {
	f, err := tree.SharedInterval(n, 2)
	if err != nil {
		return nil, err
	}
	return &treeMechPlan{flat: f, budget: tree.UniformLevelBudget(eps, f.Height())}, nil
}

// Execute measures every level once.
func (p *treeMechPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.flat.Acquire()
	p.flat.MeasureInto(m, sc, p.budget) // want `label family "level\*" \(parallel, from tree.MeasureInto\) is not declared in TreeMech's CompositionPlan`
	p.flat.Release(sc)
	return m.Err()
}

// KDMech is the HybridTree shape: a //dp:spends recursion hands a family
// label to a helper, so the labels reach the plan check through the
// annotated function's record of what it charges.
type KDMech struct{}

// CompositionPlan declares the kd family.
func (k *KDMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "kd*", Kind: noise.Parallel}}
}

type kdPlan struct {
	levels int
	eps    float64
}

// Plan keeps the level count.
func (k *KDMech) Plan(levels int, eps float64) (*kdPlan, error) {
	return &kdPlan{levels: levels, eps: eps}, nil
}

// Execute runs the good and the bad recursion on halves of the budget.
func (p *kdPlan) Execute(m *noise.Meter, out []float64) error {
	per := p.eps / 2 / float64(p.levels)
	p.split(out, 0, p.levels, per, m)
	p.badSplit(out, 0, p.levels, per, m)
	return m.Err()
}

// split charges one kd level per depth; sibling calls share the level.
//
//dp:spends par float64(left) * per
func (p *kdPlan) split(out []float64, depth, left int, per float64, m *noise.Meter) {
	if left == 0 {
		return
	}
	marginal(out, idxLabel(kdLabels, depth), per, m)
	p.split(out, depth+1, left-1, per, m)
	p.split(out, depth+1, left-1, per, m)
}

// badSplit is split drawing under a family the plan does not declare.
//
//dp:spends par float64(left) * per
func (p *kdPlan) badSplit(out []float64, depth, left int, per float64, m *noise.Meter) {
	if left == 0 {
		return
	}
	marginal(out, idxLabel(badLabels, depth), per, m) // want `label family "bad\*" \(parallel, from LaplaceVecParInto in badSplit\) is not declared in KDMech's CompositionPlan`
	p.badSplit(out, depth+1, left-1, per, m)
	p.badSplit(out, depth+1, left-1, per, m)
}

// marginal forwards its label to one parallel vector draw.
func marginal(out []float64, label string, eps float64, m *noise.Meter) {
	m.LaplaceVecParInto(label, out, out, 1/eps, eps)
}
