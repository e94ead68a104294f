package epsflow

// The label half of the budget identity. Meter.Audit checks two things
// after a trial: the ledger sums to eps, and every ledger entry matches an
// entry of the mechanism's CompositionPlan by label and by kind
// (noise.Plan.allows). The interpreter proves the sum; this file proves the
// plan match on the same paths. The root meter's ledger holds exactly
// these entries:
//
//   - each spend method called on the root meter, under its label argument,
//     parallel for the *Par methods;
//   - each sub-meter opened on the root with ResetSub, whose Close charges
//     the root once under the sub-meter's label, as parallel for a true
//     ResetSub flag. The sub-meter's own spends fold into that one entry,
//     so they are not compared;
//   - each tree.MeasureInto on the root, a parallel scope per level under
//     tree.LevelLabel's labels: the "level*" family.
//
// A //dp:spends function is not inlined at its call sites, so its own
// verification records the labels it charges into its meter parameter and
// each call on a root meter checks them against that mechanism's plan.
//
// A label must be a string constant or an entry of a labelTable family
// ("prefix*" against the plan's wildcards); anything else cannot be
// checked and is a finding. A mechanism whose CompositionPlan is not a
// literal (or that has none) gets only the sum check, as the audit does
// with a nil plan.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// planEntry is one noise.PlanEntry of a CompositionPlan literal.
type planEntry struct {
	label string // without the trailing '*' of a wildcard
	wild  bool
	par   bool
}

// planSpec is a mechanism's CompositionPlan, read statically.
type planSpec []planEntry

// allows mirrors noise.Plan.allows. A family stands for every label
// prefix+i, so only a wildcard whose prefix starts the family's covers it.
func (p planSpec) allows(label string, family, par bool) bool {
	for _, e := range p {
		if e.par != par {
			continue
		}
		if e.wild && strings.HasPrefix(label, e.label) || !e.wild && !family && e.label == label {
			return true
		}
	}
	return false
}

// labelUse is one charge on a root meter: the label value, its kind, the
// meter method (for messages), and the node to report a non-constant label
// at. A use with via set stands for every label the //dp:spends function
// via records.
type labelUse struct {
	label  value
	par    bool
	method string
	at     ast.Node
	via    types.Object
}

// useKey identifies a recorded use: one //dp:spends function reaches the
// same charge on many paths.
type useKey struct {
	fn, via   types.Object
	at, label ast.Node
	s, family string
	par       bool
}

// compositionPlan reads tn's CompositionPlan method when its body is one
// `return noise.Plan{...}` of entries with constant labels and kinds; nil
// means no plan can be read, and the mechanism gets the sum check only.
func (vr *verifier) compositionPlan(tn *types.TypeName) planSpec {
	decl := vr.methodDecl(tn, "CompositionPlan")
	if decl == nil || len(decl.Body.List) != 1 {
		return nil
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	lit, ok := unparen(ret.Results[0]).(*ast.CompositeLit)
	if !ok {
		return nil
	}
	plan := planSpec{}
	for _, elt := range lit.Elts {
		cl, ok := elt.(*ast.CompositeLit)
		if !ok {
			return nil
		}
		var labelExpr, kindExpr ast.Expr
		for i, f := range cl.Elts {
			switch kv, isKV := f.(*ast.KeyValueExpr); {
			case isKV && types.ExprString(kv.Key) == "Label":
				labelExpr = kv.Value
			case isKV && types.ExprString(kv.Key) == "Kind":
				kindExpr = kv.Value
			case !isKV && i == 0:
				labelExpr = f
			case !isKV && i == 1:
				kindExpr = f
			}
		}
		label, ok := constString(vr.pass.TypesInfo, labelExpr)
		if !ok {
			return nil
		}
		e := planEntry{label: strings.TrimSuffix(label, "*"), wild: strings.HasSuffix(label, "*")}
		if kindExpr != nil {
			if e.par, ok = parallelKind(vr.pass.TypesInfo, kindExpr); !ok {
				return nil
			}
		}
		plan = append(plan, e)
	}
	return plan
}

// parallelKind resolves a constant noise.SpendKind: true for noise.Parallel.
func parallelKind(info *types.Info, e ast.Expr) (par, ok bool) {
	tv, found := info.Types[e]
	named, _ := tv.Type.(*types.Named)
	if !found || tv.Value == nil || named == nil || named.Obj().Pkg() == nil {
		return false, false
	}
	c, _ := named.Obj().Pkg().Scope().Lookup("Parallel").(*types.Const)
	if c == nil {
		return false, false
	}
	return constant.Compare(tv.Value, token.EQL, c.Val()), true
}

// rootCharge handles one charge on meter key. Only the root of the
// current verification counts: a //dp:spends function records the use for
// its call sites, a mechanism with a plan checks it.
func (vr *verifier) rootCharge(key string, u labelUse) {
	if key != vr.root {
		return
	}
	if vr.recording != nil {
		k := useKey{vr.recording, u.via, u.at, u.label.at, u.label.s, u.label.family, u.par}
		if !vr.recorded[k] {
			vr.recorded[k] = true
			vr.fnLabels[vr.recording] = append(vr.fnLabels[vr.recording], u)
		}
		return
	}
	if vr.plan != nil {
		vr.checkLabel(u, "", nil)
	}
}

// checkLabel reports a use that no entry of the current plan allows.
// through names the //dp:spends function a recorded use came from.
func (vr *verifier) checkLabel(u labelUse, through string, seen map[types.Object]bool) {
	if u.via != nil {
		if seen == nil {
			seen = map[types.Object]bool{}
		}
		if !seen[u.via] {
			seen[u.via] = true
			for _, inner := range vr.fnLabels[u.via] {
				vr.checkLabel(inner, " in "+u.via.Name(), seen)
			}
		}
		return
	}
	l := u.label
	var name, what string
	family := false
	switch {
	case l.kind == vStr && l.sConst:
		name, what = l.s, fmt.Sprintf("label %q", l.s)
	case l.kind == vStr && l.family != "":
		name, what, family = l.family, fmt.Sprintf("label family %q", l.family+"*"), true
	default:
		vr.report(u.at, "the label passed to %s%s is neither a string constant nor a labelTable family, so it cannot be checked against %s's CompositionPlan",
			u.method, through, vr.mech)
		return
	}
	if vr.plan.allows(name, family, u.par) {
		return
	}
	kind, other := "sequential", "parallel"
	if u.par {
		kind, other = other, kind
	}
	declared := ""
	if vr.plan.allows(name, family, !u.par) {
		declared = ", which declares it " + other
	}
	at := u.at
	if l.at != nil {
		at = l.at
	}
	vr.report(at, "%s (%s, from %s%s) is not declared in %s's CompositionPlan%s: every charge must match a plan entry by label and kind",
		what, kind, u.method, through, vr.mech, declared)
}
