package epsflow

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/big"
	"sort"
	"strings"

	"dpbench/internal/analysis"
)

// verifier holds the per-package machinery shared by every mechanism
// verification: the atom table, declaration/annotation indexes, and the path
// budget bounding the symbolic exploration.
type verifier struct {
	pass     *analysis.Pass
	at       *atoms
	decls    map[types.Object]*ast.FuncDecl
	touches  map[types.Object]bool // funcs that (transitively) charge a meter
	families map[types.Object]value
	spendFn  map[types.Object]*spendAnno
	spendFor map[ast.Stmt]*spendAnno

	epsID  int // atom id of the mechanism's declared budget parameter
	budget int // fork budget for the current verification
	depth  int // inline depth
	stems  int // unique lazy-struct stem counter

	// inlining marks declarations on the inline stack, so recursion is
	// detected (and handled) rather than burning the depth budget.
	inlining map[*ast.FuncDecl]bool

	// induct is non-nil while inductively checking that annotated function:
	// recursive calls to it are evented, not inlined.
	induct types.Object

	reported map[string]bool
	mech     string // current mechanism name, for messages

	// The label check (labels.go): the current verification's root meter,
	// the mechanism's plan (nil: sum check only), and the //dp:spends
	// function whose root-meter labels are being recorded (nil: checking).
	root      string
	plan      planSpec
	recording types.Object
	recorded  map[useKey]bool
	fnLabels  map[types.Object][]labelUse
}

// abortError unwinds one mechanism verification that cannot proceed.
type abortError struct {
	pos token.Pos
	msg string
}

func (vr *verifier) abort(n ast.Node, format string, args ...any) {
	pos := token.NoPos
	if n != nil {
		pos = n.Pos()
	}
	panic(abortError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (vr *verifier) tick(n ast.Node) {
	vr.budget--
	if vr.budget <= 0 {
		vr.abort(n, "path budget exhausted exploring %s (symbolic path explosion)", vr.mech)
	}
}

// report emits a finding once per (position, message).
func (vr *verifier) report(n ast.Node, format string, args ...any) {
	pos := token.NoPos
	if n != nil {
		pos = n.Pos()
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d|%s", pos, msg)
	if vr.reported[key] {
		return
	}
	vr.reported[key] = true
	vr.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

func falls(outs []outcome) []*state {
	var sts []*state
	for _, o := range outs {
		if o.ctl == ctlFall {
			sts = append(sts, o.st)
		}
	}
	return sts
}

// block interprets a statement list, threading every live path through each
// statement in turn.
func (vr *verifier) block(list []ast.Stmt, st *state) []outcome {
	var outs []outcome
	frontier := []*state{st}
	for _, s := range list {
		var next []*state
		for _, f := range frontier {
			for _, o := range vr.stmt(s, f) {
				if o.ctl == ctlFall {
					next = append(next, o.st)
				} else {
					outs = append(outs, o)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return outs
		}
	}
	for _, f := range frontier {
		outs = append(outs, outcome{st: f, ctl: ctlFall})
	}
	return outs
}

func fallOut(st *state) []outcome { return []outcome{{st: st, ctl: ctlFall}} }

func (vr *verifier) stmt(s ast.Stmt, st *state) []outcome {
	switch s := s.(type) {
	case nil:
		return fallOut(st)
	case *ast.EmptyStmt:
		return fallOut(st)
	case *ast.BlockStmt:
		return vr.block(s.List, st)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				// A panicking path never reaches the audit: mark it exempt.
				st.poisoned = true
				return []outcome{{st: st, ctl: ctlReturn, retPos: s}}
			}
		}
		var outs []outcome
		for _, e := range vr.eval(s.X, st) {
			outs = append(outs, outcome{st: e.st, ctl: ctlFall})
		}
		return outs
	case *ast.AssignStmt:
		return vr.assignStmt(s, st)
	case *ast.IncDecStmt:
		op := token.ADD
		if s.Tok == token.DEC {
			op = token.SUB
		}
		var outs []outcome
		for _, e := range vr.eval(s.X, st) {
			nv := vr.binNum(op, e.v, numVal(ratFloat(1)), s, e.st)
			vr.assignTo(s.X, nv, e.st)
			outs = append(outs, outcome{st: e.st, ctl: ctlFall})
		}
		return outs
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return fallOut(st)
		}
		sts := []*state{st}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var next []*state
			for _, s0 := range sts {
				next = append(next, vr.declVars(vs, s0)...)
			}
			sts = next
		}
		var outs []outcome
		for _, s0 := range sts {
			outs = append(outs, outcome{st: s0, ctl: ctlFall})
		}
		return outs
	case *ast.IfStmt:
		if vr.chargeGuard(s) {
			// The charge-if-positive idiom `if x > 0 { m.Charge(label, x) }`:
			// charge x unconditionally instead of forking. When x == 0 the
			// runtime charge is a no-op and the model's +0 agrees; a negative
			// x fails the meter at runtime, so that path never reaches the
			// audit and its mislabeled total is unobservable.
			return vr.block(s.Body.List, st)
		}
		if vr.collapseClamp(s, st) {
			// Charge-free clamp on eps-free locals: forget the clamped
			// variables instead of forking. Grid-style code clamps per cell;
			// forking each clamp multiplies paths without ever touching the
			// budget.
			return fallOut(st)
		}
		sts := []*state{st}
		if s.Init != nil {
			sts = falls(vr.stmt(s.Init, st))
		}
		var outs []outcome
		for _, s0 := range sts {
			ts, fs := vr.cond(s.Cond, s0)
			if len(ts)+len(fs) > 1 {
				vr.tick(s)
			}
			for _, t := range ts {
				outs = append(outs, vr.block(s.Body.List, t)...)
			}
			for _, f := range fs {
				if s.Else != nil {
					outs = append(outs, vr.stmt(s.Else, f)...)
				} else {
					outs = append(outs, outcome{st: f, ctl: ctlFall})
				}
			}
		}
		return outs
	case *ast.ReturnStmt:
		return vr.returnStmt(s, st)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				vr.abort(s, "labeled break is not supported")
			}
			return []outcome{{st: st, ctl: ctlBreak}}
		case token.CONTINUE:
			if s.Label != nil {
				vr.abort(s, "labeled continue is not supported")
			}
			return []outcome{{st: st, ctl: ctlContinue}}
		default:
			vr.abort(s, "%s is not supported", s.Tok)
		}
	case *ast.ForStmt:
		return vr.forStmt(s, st)
	case *ast.RangeStmt:
		return vr.rangeStmt(s, st)
	case *ast.DeferStmt:
		return vr.deferStmt(s, st)
	case *ast.SwitchStmt:
		return vr.switchStmt(s, st)
	case *ast.TypeSwitchStmt, *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt, *ast.LabeledStmt:
		if vr.touchesNode(s) {
			vr.abort(s, "unsupported statement with budget charges")
		}
		vr.havocAssigned(s, st)
		return fallOut(st)
	}
	if vr.touchesNode(s) {
		vr.abort(s, "unsupported statement with budget charges")
	}
	return fallOut(st)
}

func (vr *verifier) declVars(vs *ast.ValueSpec, st *state) []*state {
	if len(vs.Values) == 0 {
		for _, name := range vs.Names {
			obj := vr.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			v := vr.zeroValue(obj.Type())
			if _, ptr := obj.Type().Underlying().(*types.Pointer); !ptr && isMeterType(obj.Type()) {
				// `var sub noise.Meter` is storage ResetSub arms in place.
				v = value{kind: vMeter, meter: vr.freshStem("meter:" + obj.Name()), bAtom: -1}
			}
			st.assign(obj, v)
		}
		return []*state{st}
	}
	var sts []*state
	for _, le := range vr.evalList(vs.Values, st) {
		vals := le.vals
		if len(vs.Names) > 1 && len(vals) == 1 && vals[0].kind == vTuple {
			vals = vals[0].tuple
		}
		for i, name := range vs.Names {
			obj := vr.pass.TypesInfo.Defs[name]
			if obj == nil || i >= len(vals) {
				continue
			}
			le.st.assign(obj, vals[i])
		}
		sts = append(sts, le.st)
	}
	return sts
}

func (vr *verifier) assignStmt(a *ast.AssignStmt, st *state) []outcome {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		// x op= e
		op := assignOpToken(a.Tok)
		var outs []outcome
		for _, l := range vr.eval(a.Lhs[0], st) {
			for _, r := range vr.eval(a.Rhs[0], l.st) {
				nv := vr.binNum(op, l.v, r.v, a, r.st)
				vr.assignTo(a.Lhs[0], nv, r.st)
				outs = append(outs, outcome{st: r.st, ctl: ctlFall})
			}
		}
		return outs
	}
	var outs []outcome
	if len(a.Rhs) == 1 {
		for _, e := range vr.eval(a.Rhs[0], st) {
			vals := []value{e.v}
			if len(a.Lhs) > 1 {
				if e.v.kind == vTuple {
					vals = e.v.tuple
				} else {
					vals = nil
					for range a.Lhs {
						vals = append(vals, opaqueVal())
					}
				}
			}
			for i, lhs := range a.Lhs {
				if i < len(vals) {
					vr.assignTo(lhs, vals[i], e.st)
				}
			}
			outs = append(outs, outcome{st: e.st, ctl: ctlFall})
		}
		return outs
	}
	for _, le := range vr.evalList(a.Rhs, st) {
		for i, lhs := range a.Lhs {
			if i < len(le.vals) {
				vr.assignTo(lhs, le.vals[i], le.st)
			}
		}
		outs = append(outs, outcome{st: le.st, ctl: ctlFall})
	}
	return outs
}

func assignOpToken(t token.Token) token.Token {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	}
	return token.ADD
}

// assignTo writes v into an lvalue expression.
func (vr *verifier) assignTo(lhs ast.Expr, v value, st *state) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := vr.pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = vr.pass.TypesInfo.Uses[lhs]
		}
		st.assign(obj, v)
	case *ast.ParenExpr:
		vr.assignTo(lhs.X, v, st)
	case *ast.StarExpr:
		vr.assignTo(lhs.X, v, st)
	case *ast.SelectorExpr:
		vr.setField(lhs, v, st)
	case *ast.IndexExpr:
		// Writing one element loses the tracked sum of the base slice.
		evs := vr.eval(lhs.X, st)
		if len(evs) == 1 && evs[0].v.kind == vSlice {
			nv := evs[0].v
			nv.sumKnown = false
			vr.assignTo(lhs.X, nv, st)
		}
	}
}

func (vr *verifier) setField(sel *ast.SelectorExpr, v value, st *state) {
	evs := vr.eval(sel.X, st)
	if len(evs) != 1 {
		return
	}
	b := evs[0].v
	if b.kind != vStruct {
		return
	}
	vr.assignTo(sel.X, b.withField(sel.Sel.Name, v), st)
}

func (vr *verifier) returnStmt(s *ast.ReturnStmt, st *state) []outcome {
	fr := st.top()
	if len(s.Results) == 0 {
		vals := make([]value, len(fr.results))
		for i, o := range fr.results {
			if v, ok := st.lookup(o); ok {
				vals[i] = v
			} else {
				vals[i] = vr.zeroValue(o.Type())
			}
		}
		return []outcome{{st: st, ctl: ctlReturn, results: vals, retPos: s}}
	}
	var outs []outcome
	for _, le := range vr.evalList(s.Results, st) {
		vals := le.vals
		if len(vals) == 1 && vals[0].kind == vTuple && len(fr.results) != 1 {
			vals = vals[0].tuple
		}
		outs = append(outs, outcome{st: le.st, ctl: ctlReturn, results: vals, retPos: s})
	}
	return outs
}

func (vr *verifier) deferStmt(s *ast.DeferStmt, st *state) []outcome {
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
		if name, ok := meterMethodName(vr.pass.TypesInfo, s.Call); ok {
			switch name {
			case "Release":
				// Void and charge-free: budget-irrelevant whenever it runs.
				return fallOut(st)
			case "Close":
			default:
				vr.abort(s, "deferred meter operation %s is not supported (only Close)", name)
			}
			evs := vr.eval(sel.X, st)
			if len(evs) != 1 || evs[0].v.kind != vMeter {
				vr.abort(s, "cannot resolve deferred Close receiver")
			}
			st.top().defers = append(st.top().defers, deferredOp{meterKey: evs[0].v.meter})
			return fallOut(st)
		}
	}
	if vr.touchesNode(s.Call) {
		vr.abort(s, "deferred call with budget charges is not supported")
	}
	return fallOut(st)
}

// applyDefers runs the frame's deferred sub-meter closes at function exit.
func (vr *verifier) applyDefers(fr *frame, st *state, at ast.Node) {
	for i := len(fr.defers) - 1; i >= 0; i-- {
		vr.closeMeter(fr.defers[i].meterKey, st, at)
	}
}

func (vr *verifier) switchStmt(s *ast.SwitchStmt, st *state) []outcome {
	sts := []*state{st}
	if s.Init != nil {
		sts = falls(vr.stmt(s.Init, st))
	}
	var outs []outcome
	for _, s0 := range sts {
		outs = append(outs, vr.switchCases(s, s0)...)
	}
	// break inside a switch terminates the switch, not a loop
	for i, o := range outs {
		if o.ctl == ctlBreak {
			outs[i] = outcome{st: o.st, ctl: ctlFall}
		}
	}
	return outs
}

func (vr *verifier) switchCases(s *ast.SwitchStmt, st *state) []outcome {
	var outs []outcome
	rest := []*state{st}
	var deflt *ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		var next []*state
		for _, s0 := range rest {
			// A state that fails every expression of this clause continues to
			// the next clause; any matching expression runs the body.
			cur := []*state{s0}
			for _, ce := range cc.List {
				var rem []*state
				for _, c0 := range cur {
					var ts, fs []*state
					if s.Tag != nil {
						ts, fs = vr.condEq(s.Tag, ce, c0, true)
					} else {
						ts, fs = vr.cond(ce, c0)
					}
					for _, t := range ts {
						outs = append(outs, vr.block(cc.Body, t)...)
					}
					rem = append(rem, fs...)
				}
				cur = rem
			}
			next = append(next, cur...)
		}
		rest = next
	}
	for _, s0 := range rest {
		if deflt != nil {
			outs = append(outs, vr.block(deflt.Body, s0)...)
		} else {
			outs = append(outs, outcome{st: s0, ctl: ctlFall})
		}
	}
	return outs
}

// --- conditions ---

// cond evaluates a branch condition, returning the specialized true-branch
// and false-branch states (each list possibly empty when decided or pruned).
func (vr *verifier) cond(e ast.Expr, st *state) (ts, fs []*state) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return vr.cond(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			fs, ts = vr.cond(e.X, st)
			return ts, fs
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			ts1, fs1 := vr.cond(e.X, st)
			fs = append(fs, fs1...)
			for _, t := range ts1 {
				ts2, fs2 := vr.cond(e.Y, t)
				ts = append(ts, ts2...)
				fs = append(fs, fs2...)
			}
			return ts, fs
		case token.LOR:
			ts1, fs1 := vr.cond(e.X, st)
			ts = append(ts, ts1...)
			for _, f := range fs1 {
				ts2, fs2 := vr.cond(e.Y, f)
				ts = append(ts, ts2...)
				fs = append(fs, fs2...)
			}
			return ts, fs
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return vr.condCmp(e, st)
		}
	}
	// A bare boolean expression (variable, call, field).
	for _, ev := range vr.eval(e, st) {
		t2, f2 := vr.boolBranch(ev.v, ev.st)
		ts = append(ts, t2...)
		fs = append(fs, f2...)
	}
	return ts, fs
}

func (vr *verifier) boolBranch(v value, st *state) (ts, fs []*state) {
	if v.kind == vBool && v.bSet {
		if v.b {
			return []*state{st}, nil
		}
		return nil, []*state{st}
	}
	if v.kind == vBool && v.bAtom >= 0 {
		if val, ok := st.cons.bool[v.bAtom]; ok {
			if val {
				return []*state{st}, nil
			}
			return nil, []*state{st}
		}
		fSt := st.clone()
		st.cons.bool[v.bAtom] = true
		fSt.cons.bool[v.bAtom] = false
		return []*state{st}, []*state{fSt}
	}
	return []*state{st}, []*state{st.clone()}
}

func (vr *verifier) condCmp(e *ast.BinaryExpr, st *state) (ts, fs []*state) {
	for _, xe := range vr.eval(e.X, st) {
		for _, ye := range vr.eval(e.Y, xe.st) {
			t2, f2 := vr.decide(e.Op, e.X, xe.v, e.Y, ye.v, ye.st)
			ts = append(ts, t2...)
			fs = append(fs, f2...)
		}
	}
	return ts, fs
}

// condEq handles a synthesized tag == caseExpr comparison for switches.
func (vr *verifier) condEq(x, y ast.Expr, st *state, eq bool) (ts, fs []*state) {
	for _, xe := range vr.eval(x, st) {
		for _, ye := range vr.eval(y, xe.st) {
			op := token.EQL
			if !eq {
				op = token.NEQ
			}
			t2, f2 := vr.decide(op, x, xe.v, y, ye.v, ye.st)
			ts = append(ts, t2...)
			fs = append(fs, f2...)
		}
	}
	return ts, fs
}

func nonNilOf(v value) tri {
	switch v.kind {
	case vNil:
		return triFalse
	case vErr:
		return v.errNonNil
	case vSlice, vStruct, vLabels:
		return v.nonNil
	case vMeter:
		return triTrue
	}
	return triUnknown
}

func (vr *verifier) decide(op token.Token, xe ast.Expr, x value, ye ast.Expr, y value, st *state) (ts, fs []*state) {
	one := func(truth bool) ([]*state, []*state) {
		if truth {
			return []*state{st}, nil
		}
		return nil, []*state{st}
	}
	// nil comparisons
	if x.kind == vNil || y.kind == vNil {
		other, otherExpr := x, xe
		if x.kind == vNil {
			other, otherExpr = y, ye
		}
		nn := nonNilOf(other)
		// x == nil is true iff the value is nil (nonNil false)
		if nn != triUnknown {
			isNil := nn == triFalse
			if op == token.EQL {
				return one(isNil)
			}
			return one(!isNil)
		}
		nilSt, nonNilSt := st, st.clone()
		vr.rebindNilness(otherExpr, other, false, nilSt)
		vr.rebindNilness(otherExpr, other, true, nonNilSt)
		if op == token.EQL {
			return []*state{nilSt}, []*state{nonNilSt}
		}
		return []*state{nonNilSt}, []*state{nilSt}
	}
	// numeric comparisons
	if x.kind == vNum && y.kind == vNum {
		d := st.cons.substPoints(ratSub(x.r, y.r), vr.at)
		sym := cmpOpString(op)
		switch st.cons.cmpZero(d, vr.at, sym) {
		case triTrue:
			return one(true)
		case triFalse:
			return one(false)
		}
		fSt := st.clone()
		ts, fs = nil, nil
		if vr.assume(st, d, sym) {
			ts = append(ts, st)
		}
		if vr.assume(fSt, d, negCmp(sym)) {
			fs = append(fs, fSt)
		}
		return ts, fs
	}
	// string equality
	if x.kind == vStr && y.kind == vStr && x.sConst && y.sConst && (op == token.EQL || op == token.NEQ) {
		return one((x.s == y.s) == (op == token.EQL))
	}
	// booleans compared to constants
	if x.kind == vBool && y.kind == vBool && x.bSet && y.bSet && (op == token.EQL || op == token.NEQ) {
		return one((x.b == y.b) == (op == token.EQL))
	}
	// undecidable: fork without constraints
	return []*state{st}, []*state{st.clone()}
}

// rebindNilness strengthens an lvalue's nil-ness after a nil comparison.
func (vr *verifier) rebindNilness(e ast.Expr, v value, nonNil bool, st *state) {
	nv := v
	switch v.kind {
	case vErr:
		nv.errNonNil = triOf(nonNil)
	case vSlice, vLabels:
		nv.nonNil = triOf(nonNil)
		if !nonNil {
			nv.sum = ratZero()
			nv.sumKnown = true
		}
	case vStruct:
		if !nonNil {
			nv = nilVal()
		} else {
			nv.nonNil = triTrue
		}
	case vOpaque:
		if !nonNil {
			nv = nilVal()
		}
	default:
		return
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		vr.assignTo(e, nv, st)
	}
}

func cmpOpString(op token.Token) string {
	switch op {
	case token.LSS:
		return "<"
	case token.LEQ:
		return "<="
	case token.GTR:
		return ">"
	case token.GEQ:
		return ">="
	case token.EQL:
		return "=="
	}
	return "!="
}

func negCmp(op string) string {
	switch op {
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	case "==":
		return "!="
	}
	return "=="
}

// assume records "d op 0" into the state's constraints when d is linear in a
// single atom; it reports false when the constraint is infeasible.
func (vr *verifier) assume(st *state, d rat, op string) bool {
	id, c1, c0, ok := d.linearAtom()
	if !ok {
		return true // unconstrainable, keep the path
	}
	// c1*a + c0 op 0  ==>  a op' b  with b = -c0/c1
	b := new(big.Rat).Neg(c0)
	b.Quo(b, c1)
	bf, _ := b.Float64()
	flip := c1.Sign() < 0
	integer := vr.at.isInt[id]
	apply := func(o string) bool {
		switch o {
		case "<":
			return st.cons.addUpper(id, bf, true, integer)
		case "<=":
			return st.cons.addUpper(id, bf, false, integer)
		case ">":
			return st.cons.addLower(id, bf, true, integer)
		case ">=":
			return st.cons.addLower(id, bf, false, integer)
		case "==":
			return st.cons.addLower(id, bf, false, integer) && st.cons.addUpper(id, bf, false, integer)
		case "!=":
			// For integers, excluding an endpoint tightens the interval:
			// k >= 0 && k != 0 gives k >= 1.
			if !integer {
				return true
			}
			iv := st.cons.num[id]
			if iv.lo.set && !iv.lo.strict && iv.lo.val == bf {
				return st.cons.addLower(id, bf, true, integer)
			}
			if iv.hi.set && !iv.hi.strict && iv.hi.val == bf {
				return st.cons.addUpper(id, bf, true, integer)
			}
		}
		return true
	}
	if flip {
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	return apply(op)
}

// --- loops ---

// loopInfo is the digested shape of a for/range statement.
type loopInfo struct {
	node    ast.Node
	body    *ast.BlockStmt
	loopVar types.Object // counted loop variable or range key (may be nil)
	valVar  types.Object // range value variable (may be nil)
	rangeX  ast.Expr     // ranged expression (range loops)
	trip    rat
	tripOK  bool
}

func (vr *verifier) forStmt(n *ast.ForStmt, st *state) []outcome {
	sts := []*state{st}
	if n.Init != nil {
		sts = falls(vr.stmt(n.Init, st))
	}
	var outs []outcome
	for _, s0 := range sts {
		info := vr.forShape(n, s0)
		if anno := vr.spendFor[ast.Stmt(n)]; anno != nil {
			outs = append(outs, vr.annotatedLoop(info, anno, s0)...)
		} else {
			outs = append(outs, vr.loopCore(info, s0)...)
		}
	}
	return outs
}

// forShape recognizes `for i := A; i < B; i++` (run after Init executed, so
// the loop variable already holds A) and derives the symbolic trip count.
func (vr *verifier) forShape(n *ast.ForStmt, st *state) loopInfo {
	info := loopInfo{node: n, body: n.Body}
	asn, ok := n.Init.(*ast.AssignStmt)
	if !ok || asn.Tok != token.DEFINE || len(asn.Lhs) != 1 {
		return info
	}
	id, ok := asn.Lhs[0].(*ast.Ident)
	if !ok {
		return info
	}
	obj := vr.pass.TypesInfo.Defs[id]
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return info
	}
	cid, ok := cond.X.(*ast.Ident)
	if !ok || vr.pass.TypesInfo.Uses[cid] != obj {
		return info
	}
	inc, ok := n.Post.(*ast.IncDecStmt)
	if !ok || inc.Tok != token.INC {
		return info
	}
	iid, ok := inc.X.(*ast.Ident)
	if !ok || vr.pass.TypesInfo.Uses[iid] != obj {
		return info
	}
	info.loopVar = obj
	start, ok := st.lookup(obj)
	if !ok || start.kind != vNum {
		return info
	}
	evs := vr.eval(cond.Y, st)
	if len(evs) != 1 || evs[0].v.kind != vNum {
		return info
	}
	trip := ratSub(evs[0].v.r, start.r)
	if cond.Op == token.LEQ {
		trip = ratAdd(trip, ratFloat(1))
	}
	info.trip = st.cons.substPoints(trip, vr.at)
	info.tripOK = true
	return info
}

func (vr *verifier) rangeStmt(n *ast.RangeStmt, st *state) []outcome {
	info := loopInfo{node: n, body: n.Body, rangeX: n.X}
	if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
		info.loopVar = vr.pass.TypesInfo.Defs[id]
		if info.loopVar == nil {
			info.loopVar = vr.pass.TypesInfo.Uses[id]
		}
	}
	if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
		info.valVar = vr.pass.TypesInfo.Defs[id]
		if info.valVar == nil {
			info.valVar = vr.pass.TypesInfo.Uses[id]
		}
	}
	// `for i := range n` over an integer is a counted loop.
	if t, ok := vr.pass.TypesInfo.Types[n.X]; ok {
		if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			evs := vr.eval(n.X, st)
			if len(evs) == 1 && evs[0].v.kind == vNum {
				info.trip = evs[0].v.r
				info.tripOK = true
			}
		}
	}
	if anno := vr.spendFor[ast.Stmt(n)]; anno != nil {
		return vr.annotatedLoop(info, anno, st)
	}
	return vr.loopCore(info, st)
}

// bindLoopVars gives the loop variable(s) fresh symbolic values for the
// body-once interpretation and returns the loop-variable atom (or -1).
func (vr *verifier) bindLoopVars(info loopInfo, st *state) int {
	iota := -1
	if info.loopVar != nil {
		iota = vr.at.fresh(info.loopVar.Name(), true)
		st.cons.addLower(iota, 0, false, true)
		st.assign(info.loopVar, numVal(ratAtom(iota)))
	}
	if info.valVar != nil {
		bound := false
		if info.rangeX != nil {
			evs := vr.eval(info.rangeX, st)
			if len(evs) == 1 && evs[0].v.kind == vLabels && iota >= 0 {
				st.assign(info.valVar, value{kind: vStr, family: evs[0].v.family, famIdx: ratAtom(iota), famIdxOK: true, at: info.rangeX})
				bound = true
			}
		}
		if !bound {
			st.assign(info.valVar, vr.freshTyped(info.valVar.Type(), info.valVar.Name()))
		}
	}
	return iota
}

// iterDep reports whether r depends on the current iteration: it mentions
// the loop-variable atom or any atom minted during the body interpretation.
func (vr *verifier) iterDep(r rat, iota, mark int) bool {
	if iota >= 0 && r.hasAtom(iota) {
		return true
	}
	return hasAtomGE(r, mark)
}

func hasAtomGE(r rat, mark int) bool {
	if polyHasAtomGE(r.num, mark) {
		return true
	}
	for _, d := range r.den {
		if polyHasAtomGE(d, mark) {
			return true
		}
	}
	return false
}

func polyHasAtomGE(p poly, mark int) bool {
	for m := range p {
		for id := range decodeMono(m) {
			if id >= mark {
				return true
			}
		}
	}
	return false
}

// meterDelta is the per-iteration charge footprint of one meter in a loop
// body, split into the parts that scale with the trip count (seq, famPer)
// and the parts parallel composition dedups (parNew).
type meterDelta struct {
	key    string
	seq    rat
	fam    rat // famSum delta (from nested loops)
	famPer rat // ranged-family per-iteration amount
	parNew []chargeKey
	parEnt map[chargeKey]parEntry
}

func (vr *verifier) loopDeltas(o outcome, snap map[string]*meterState, iota, mark int, info loopInfo, annotated bool) ([]meterDelta, bool) {
	varying := "; annotate the loop with //dp:spends"
	if annotated {
		varying = "; //dp:spends cannot verify a varying per-iteration amount"
	}
	var deltas []meterDelta
	ok := true
	for _, key := range o.st.mOrder {
		ms := o.st.meters[key]
		old, had := snap[key]
		if !had {
			// A sub-meter created inside the body: it must have been closed
			// (its spend then shows up in its parent's delta).
			if !ms.closed && !ms.total().isZero() {
				vr.report(info.node, "sub-meter %q opened in loop body is not closed before the iteration ends", ms.label)
				ok = false
			}
			continue
		}
		d := meterDelta{key: key, parEnt: map[chargeKey]parEntry{}}
		d.seq = ratSub(ms.seq, old.seq)
		d.fam = ratSub(ms.famSum, old.famSum)
		for _, k := range ms.parIdx {
			if _, dup := old.par[k]; dup {
				continue
			}
			e := ms.par[k]
			if vr.iterDep(e.amount, iota, mark) {
				vr.report(info.node, "parallel charge %s has an iteration-dependent amount %s", fmtChargeKey(k), e.amount.render(vr.at))
				ok = false
				continue
			}
			if e.fam && vr.iterDep(e.idx, iota, mark) {
				d.famPer = ratAdd(d.famPer, e.amount)
				continue
			}
			d.parNew = append(d.parNew, k)
			d.parEnt[k] = e
		}
		if vr.iterDep(d.seq, iota, mark) {
			vr.report(info.node, "sequential loop spend %s depends on the iteration%s", d.seq.render(vr.at), varying)
			ok = false
		}
		if vr.iterDep(d.fam, iota, mark) {
			vr.report(info.node, "nested family spend %s depends on the iteration%s", d.fam.render(vr.at), varying)
			ok = false
		}
		if !d.seq.isZero() || !d.fam.isZero() || !d.famPer.isZero() || len(d.parNew) > 0 {
			deltas = append(deltas, d)
		}
	}
	return deltas, ok
}

func (vr *verifier) deltaSignature(deltas []meterDelta) string {
	var b strings.Builder
	for _, d := range deltas {
		fmt.Fprintf(&b, "%s|seq=%s|fam=%s|famPer=%s|", d.key, d.seq.render(vr.at), d.fam.render(vr.at), d.famPer.render(vr.at))
		keys := append([]chargeKey{}, d.parNew...)
		sort.Slice(keys, func(i, j int) bool { return fmtChargeKey(keys[i]) < fmtChargeKey(keys[j]) })
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s,", fmtChargeKey(k), d.parEnt[k].amount.render(vr.at))
		}
		b.WriteString(";")
	}
	return b.String()
}

// scalableSignature is the trip-scaled part only — the part that must agree
// across body branches for the loop total to be path-independent.
func (vr *verifier) scalableSignature(deltas []meterDelta) string {
	var b strings.Builder
	for _, d := range deltas {
		if d.seq.isZero() && d.fam.isZero() && d.famPer.isZero() {
			continue
		}
		fmt.Fprintf(&b, "%s|%s|%s|%s;", d.key, d.seq.render(vr.at), d.fam.render(vr.at), d.famPer.render(vr.at))
	}
	return b.String()
}

// applyScaled rebuilds the continuation meters: pre-loop charges plus
// trip-scaled per-iteration deltas plus the dedup'd parallel entries.
func (vr *verifier) applyScaled(o outcome, snap map[string]*meterState, deltas []meterDelta, trip rat, tripOK bool, info loopInfo) bool {
	for _, d := range deltas {
		scaled := !d.seq.isZero() || !d.fam.isZero() || !d.famPer.isZero()
		if scaled && !tripOK {
			vr.report(info.node, "cannot derive the trip count of a loop with per-iteration spend %s; annotate it with //dp:spends",
				ratAdd(ratAdd(d.seq, d.fam), d.famPer).render(vr.at))
			return false
		}
		old := snap[d.key].clone()
		ms := o.st.meters[d.key]
		ms.seq = ratAdd(old.seq, ratMul(trip, d.seq))
		ms.famSum = ratAdd(old.famSum, ratMul(trip, ratAdd(d.fam, d.famPer)))
		ms.par = make(map[chargeKey]parEntry, len(old.par)+len(d.parNew))
		ms.parIdx = append([]chargeKey{}, old.parIdx...)
		for k, e := range old.par {
			ms.par[k] = e
		}
		for _, k := range d.parNew {
			ms.addPar(k, d.parEnt[k])
		}
	}
	return true
}

// loopCore interprets one loop: charge-free loops are havocked (with
// accumulator-pattern recognition), charging loops are interpreted once and
// their per-iteration footprint is scaled by the symbolic trip count.
func (vr *verifier) loopCore(info loopInfo, st *state) []outcome {
	if !vr.touchesNode(info.body) {
		return vr.chargeFreeLoop(info, st)
	}
	var outs []outcome

	// Zero-trip path: counted loops that may run zero times skip all
	// charges. Range loops over data are assumed non-empty (documented).
	runs := triUnknown
	if info.tripOK {
		runs = st.cons.cmpZero(st.cons.substPoints(info.trip, vr.at), vr.at, ">")
	}
	if info.tripOK && runs == triFalse {
		return fallOut(st) // provably zero iterations
	}
	if info.tripOK && runs == triUnknown {
		zs := st.clone()
		if vr.assume(zs, info.trip, "<=") {
			outs = append(outs, outcome{st: zs, ctl: ctlFall})
		}
		vr.tick(info.node)
	}

	bs := st // the zero-trip path was cloned above; st continues as the run path
	if info.tripOK && runs == triUnknown {
		if !vr.assume(bs, info.trip, ">") {
			return outs // running the loop is infeasible
		}
	}
	flags := vr.monotoneFlags(info.body, bs)
	vr.havocAssigned(info.body, bs)
	flagAtoms := map[types.Object]int{}
	for _, obj := range flags {
		if v, ok := bs.lookup(obj); ok && v.kind == vBool && !v.bSet && v.bAtom >= 0 {
			flagAtoms[obj] = v.bAtom
		}
	}
	iota := vr.bindLoopVars(info, bs)
	mark := len(vr.at.names)
	snap := make(map[string]*meterState, len(bs.meters))
	for k, ms := range bs.meters {
		snap[k] = ms.clone()
	}

	body := vr.block(info.body.List, bs)
	var normal []outcome
	for _, o := range body {
		switch o.ctl {
		case ctlReturn:
			if vr.exemptOutcome(o) {
				outs = append(outs, o)
				continue
			}
			vr.report(o.retPos, "return from inside a budget-charging loop leaves the loop's spend unverifiable")
			o.st.poisoned = true // avoid a cascading total-mismatch report
			outs = append(outs, o)
		case ctlBreak:
			d, _ := vr.loopDeltas(o, snap, iota, mark, info, false)
			for _, dd := range d {
				if !dd.seq.isZero() || !dd.fam.isZero() || !dd.famPer.isZero() {
					vr.report(info.node, "break out of a loop with per-iteration spend leaves the loop total unverifiable")
				}
			}
			outs = append(outs, outcome{st: o.st, ctl: ctlFall})
		default:
			normal = append(normal, outcome{st: o.st, ctl: ctlFall})
		}
	}

	seen := map[string]bool{}
	scalable := map[string]bool{}
	for _, o := range normal {
		deltas, ok := vr.loopDeltas(o, snap, iota, mark, info, false)
		if !ok {
			continue
		}
		ssig := vr.scalableSignature(deltas)
		scalable[ssig] = true
		if len(scalable) > 1 {
			vr.report(info.node, "branch-dependent loop spend: different body paths charge different per-iteration amounts")
			continue
		}
		sig := vr.deltaSignature(deltas)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		if vr.applyScaled(o, snap, deltas, info.trip, info.tripOK, info) {
			vr.settleFlags(flagAtoms, o.st)
			outs = append(outs, o)
		}
	}
	return outs
}

// monotoneFlags finds loop-external bool locals that enter the loop holding
// the constant false and are only ever assigned the literal true inside the
// body — the `found`/`split` idiom. Because such a flag can only go one way,
// an outcome where it still holds its havoc unknown after the body is an
// outcome on which no iteration set it; settleFlags pins the unknown to
// false there. Without this the havoc loses the correlation between "no
// iteration charged" and "the flag is still false", and a compensating
// charge guarded by the flag (PHP's `if !split { m.ChargePar(...) }`) looks
// branch-dependent.
func (vr *verifier) monotoneFlags(body *ast.BlockStmt, st *state) []types.Object {
	eligible := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := vr.pass.TypesInfo.Uses[id]
				if obj == nil {
					// A definition inside the body is iteration-local, not a
					// flag carried across iterations.
					if def := vr.pass.TypesInfo.Defs[id]; def != nil {
						eligible[def] = false
					}
					continue
				}
				if !isBoolType(obj.Type()) {
					continue
				}
				constTrue := false
				if n.Tok == token.ASSIGN && i < len(n.Rhs) {
					if tv, ok := vr.pass.TypesInfo.Types[n.Rhs[i]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
						constTrue = constant.BoolVal(tv.Value)
					}
				}
				if was, seen := eligible[obj]; seen && !was {
					continue
				}
				eligible[obj] = constTrue
			}
		}
		return true
	})
	var flags []types.Object
	for obj, ok := range eligible {
		if !ok {
			continue
		}
		if v, found := st.lookup(obj); found && v.kind == vBool && v.bSet && !v.b {
			flags = append(flags, obj)
		}
	}
	return flags
}

// settleFlags pins monotone flags the selected body shape never set: under
// the one-shape-per-run abstraction no iteration set them, so their
// post-loop value is their pre-loop false.
func (vr *verifier) settleFlags(flagAtoms map[types.Object]int, st *state) {
	for obj, atom := range flagAtoms {
		v, ok := st.lookup(obj)
		if !ok || v.kind != vBool || v.bSet || v.bAtom != atom {
			continue
		}
		if _, bound := st.cons.bool[atom]; !bound {
			st.cons.bool[atom] = false
		}
	}
}

// chargeFreeLoop handles loops without meter operations: recognize the
// budget-building accumulator idioms exactly, otherwise havoc.
func (vr *verifier) chargeFreeLoop(info loopInfo, st *state) []outcome {
	if vr.recognizeAccum(info, st) {
		return fallOut(st)
	}
	hasReturn := false
	ast.Inspect(info.body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt:
			hasReturn = true
		case *ast.FuncLit:
			return false
		}
		return true
	})
	var outs []outcome
	if hasReturn {
		bs := st.clone()
		vr.havocAssigned(info.body, bs)
		vr.bindLoopVars(info, bs)
		for _, o := range vr.block(info.body.List, bs) {
			if o.ctl == ctlReturn {
				outs = append(outs, o)
			}
		}
		vr.tick(info.node)
	}
	vr.havocAssigned(info.body, st)
	if info.loopVar != nil {
		st.assign(info.loopVar, vr.freshTyped(info.loopVar.Type(), info.loopVar.Name()))
	}
	outs = append(outs, outcome{st: st, ctl: ctlFall})
	return outs
}

// havocAssigned replaces everything the statement assigns with fresh
// unknowns (called before and after body-once loop interpretation).
func (vr *verifier) havocAssigned(n ast.Node, st *state) {
	havocLhs := func(lhs ast.Expr) {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			obj := vr.pass.TypesInfo.Defs[lhs]
			if obj == nil {
				obj = vr.pass.TypesInfo.Uses[lhs]
			}
			if obj == nil {
				return
			}
			if _, local := st.top().vars[obj]; local || vr.pass.TypesInfo.Defs[lhs] != nil {
				st.assign(obj, vr.freshTyped(obj.Type(), obj.Name()))
			}
		case *ast.IndexExpr:
			if base, ok := lhs.X.(*ast.Ident); ok {
				obj := vr.pass.TypesInfo.Uses[base]
				if obj == nil {
					return
				}
				if v, ok := st.lookup(obj); ok && v.kind == vSlice {
					v.sumKnown = false
					st.assign(obj, v)
				}
			}
		case *ast.SelectorExpr:
			vr.setFieldHavoc(lhs, st)
		case *ast.StarExpr:
			havocLhsInner(lhs.X, st, vr)
		}
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nn.Lhs {
				havocLhs(lhs)
			}
		case *ast.IncDecStmt:
			havocLhs(nn.X)
		case *ast.RangeStmt:
			if nn.Key != nil {
				havocLhs(nn.Key)
			}
			if nn.Value != nil {
				havocLhs(nn.Value)
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
}

func havocLhsInner(e ast.Expr, st *state, vr *verifier) {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		obj := vr.pass.TypesInfo.Uses[id]
		if obj != nil {
			if _, local := st.top().vars[obj]; local {
				st.assign(obj, vr.freshTyped(obj.Type(), obj.Name()))
			}
		}
	}
}

func (vr *verifier) setFieldHavoc(sel *ast.SelectorExpr, st *state) {
	obj := vr.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return
	}
	evs := vr.eval(sel.X, st)
	if len(evs) != 1 || evs[0].v.kind != vStruct {
		return
	}
	vr.assignTo(sel.X, evs[0].v.withField(sel.Sel.Name, vr.freshTyped(obj.Type(), sel.Sel.Name)), st)
}

// recognizeAccum interprets charge-free loops consisting purely of the
// budget-building idioms:
//
//	acc += S[i]          -> acc += sum(S)
//	acc += e             -> acc += trip*e       (e iteration-independent)
//	out[i] = C * S[i]    -> sum(out) = C * sum(S)
//	out[i] = e           -> sum(out) = trip*e   (e iteration-independent)
//	s = append(s, e)     -> sum(s) += trip*e    (e iteration-independent)
//
// This is what closes GreedyH's weight-normalization (out[i] =
// eps*w[i]/total where total = sum(w) gives sum(out) = eps) and the
// append-per-level budget builders exactly.
func (vr *verifier) recognizeAccum(info loopInfo, st *state) bool {
	// Every statement must be one of the recognized forms. Scalar defines and
	// guard-ifs over body locals (`w := weights[l]; if w < 1 { w = 1 }`) are
	// tolerated: the guarded local simply degrades to a per-iteration unknown.
	for _, s := range info.body.List {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			switch s.Tok {
			case token.ADD_ASSIGN, token.ASSIGN, token.DEFINE:
			default:
				return false
			}
		case *ast.IfStmt:
			// Validated during processing below.
		default:
			return false
		}
	}
	// Evaluate on a scratch clone with slice reads replaced by placeholders.
	type sliceRead struct {
		obj  types.Object
		beta int
	}
	var reads []sliceRead
	scratch := st.clone()
	placeholderFor := func(obj types.Object) int {
		for _, r := range reads {
			if r.obj == obj {
				return r.beta
			}
		}
		beta := vr.at.fresh("elem:"+obj.Name(), false)
		reads = append(reads, sliceRead{obj: obj, beta: beta})
		return beta
	}
	// Bind loop var and range value var to placeholders in the scratch.
	if info.loopVar != nil {
		iota := vr.at.fresh(info.loopVar.Name(), true)
		scratch.assign(info.loopVar, numVal(ratAtom(iota)))
	}
	var rangeObj types.Object
	if info.valVar != nil && info.rangeX != nil {
		if id, ok := unparen(info.rangeX).(*ast.Ident); ok {
			rangeObj = vr.pass.TypesInfo.Uses[id]
		}
		if rangeObj == nil {
			return false
		}
		scratch.assign(info.valVar, numVal(ratAtom(placeholderFor(rangeObj))))
	}
	// Substitute S[i] reads: pre-scan index expressions; if any indexed read
	// uses a non-loop-var index, bail.
	loopIdent := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && info.loopVar != nil && (vr.pass.TypesInfo.Uses[id] == info.loopVar || vr.pass.TypesInfo.Defs[id] == info.loopVar)
	}
	// Pre-bind every S (read via S[i]) so eval sees the placeholder: we
	// rewrite by assigning a marker value is not possible, so instead we
	// evaluate RHS manually below via evalAccum.
	evalAccum := func(e ast.Expr) (rat, bool) {
		var evalE func(e ast.Expr) (rat, bool)
		evalE = func(e ast.Expr) (rat, bool) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				return evalE(e.X)
			case *ast.IndexExpr:
				if !loopIdent(e.Index) {
					return ratZero(), false
				}
				base, ok := unparen(e.X).(*ast.Ident)
				if !ok {
					return ratZero(), false
				}
				obj := vr.pass.TypesInfo.Uses[base]
				if obj == nil {
					return ratZero(), false
				}
				return ratAtom(placeholderFor(obj)), true
			case *ast.BinaryExpr:
				x, ok1 := evalE(e.X)
				y, ok2 := evalE(e.Y)
				if !ok1 || !ok2 {
					return ratZero(), false
				}
				switch e.Op {
				case token.ADD:
					return ratAdd(x, y), true
				case token.SUB:
					return ratSub(x, y), true
				case token.MUL:
					return ratMul(x, y), true
				case token.QUO:
					q, ok := ratDiv(x, y)
					return q, ok
				}
				return ratZero(), false
			default:
				evs := vr.eval(e, scratch)
				if len(evs) != 1 || evs[0].v.kind != vNum {
					return ratZero(), false
				}
				return evs[0].v.r, true
			}
		}
		return evalE(e)
	}
	sliceSum := func(obj types.Object) (rat, bool) {
		v, ok := st.lookup(obj)
		if !ok {
			return ratZero(), false
		}
		if v.kind != vSlice {
			return ratZero(), false
		}
		if !v.sumKnown {
			// Materialize an unknown total once so correlated loops share it.
			sig := vr.at.fresh("sum:"+obj.Name(), false)
			v.sum = ratAtom(sig)
			v.sumKnown = true
			st.assign(obj, v)
		}
		return v.sum, true
	}
	// Updates apply sequentially: a slice written earlier in the body reads
	// back its updated sum (cube[l] = f(w); total += cube[l]).
	apply := func(obj types.Object, v value) {
		st.assign(obj, v)
		scratch.assign(obj, v)
	}
	locals := map[types.Object]bool{}
	dirty := func(obj types.Object) {
		d := vr.at.fresh("iter:"+obj.Name(), false)
		reads = append(reads, sliceRead{obj: nil, beta: d})
		scratch.assign(obj, numVal(ratAtom(d)))
	}
	for _, s := range info.body.List {
		if ifs, ok := s.(*ast.IfStmt); ok {
			// A guard over body locals: both branches conflate, the guarded
			// locals become per-iteration unknowns.
			if ifs.Else != nil || ifs.Init != nil {
				return false
			}
			for _, bs := range ifs.Body.List {
				a, ok := bs.(*ast.AssignStmt)
				if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
					return false
				}
				id, ok := unparen(a.Lhs[0]).(*ast.Ident)
				if !ok {
					return false
				}
				obj := vr.pass.TypesInfo.Uses[id]
				if obj == nil || !locals[obj] {
					return false
				}
				dirty(obj)
			}
			continue
		}
		a := s.(*ast.AssignStmt)
		lhs, rhs := a.Lhs[0], a.Rhs[0]
		if a.Tok == token.DEFINE {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				return false
			}
			obj := vr.pass.TypesInfo.Defs[id]
			if obj == nil || (!isFloatType(obj.Type()) && !isIntType(obj.Type())) {
				return false
			}
			r, ok := evalAccum(rhs)
			if !ok {
				return false
			}
			locals[obj] = true
			scratch.assign(obj, numVal(r))
			continue
		}
		if a.Tok == token.ASSIGN {
			if id, call, ok := appendSelf(lhs, rhs); ok {
				// s = append(s, e): the call itself is not a numeric
				// expression, so dispatch on shape before evalAccum sees it.
				obj := vr.pass.TypesInfo.Uses[id]
				if obj == nil {
					return false
				}
				cur, ok := st.lookup(obj)
				if !ok || cur.kind != vSlice || !cur.sumKnown {
					return false
				}
				r2, ok := evalAccum(call.Args[1])
				if !ok {
					return false
				}
				for _, rd := range reads {
					if r2.hasAtom(rd.beta) {
						return false
					}
				}
				if info.loopVar != nil {
					if v, ok := scratch.lookup(info.loopVar); ok && v.kind == vNum {
						for m := range v.r.num {
							for id := range decodeMono(m) {
								if r2.hasAtom(id) {
									return false
								}
							}
						}
					}
				}
				if !info.tripOK {
					return false
				}
				cur.sum = ratAdd(cur.sum, ratMul(info.trip, r2))
				cur.nonNil = triTrue
				apply(obj, cur)
				continue
			}
		}
		r, ok := evalAccum(rhs)
		if !ok {
			return false
		}
		iterIndep := true
		var usedBeta []sliceRead
		for _, rd := range reads {
			if r.hasAtom(rd.beta) {
				usedBeta = append(usedBeta, rd)
				iterIndep = false
			}
		}
		if info.loopVar != nil {
			if v, ok := scratch.lookup(info.loopVar); ok && v.kind == vNum {
				for m := range v.r.num {
					for id := range decodeMono(m) {
						if r.hasAtom(id) {
							iterIndep = false
						}
					}
				}
			}
		}
		switch a.Tok {
		case token.ADD_ASSIGN:
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				return false
			}
			obj := vr.pass.TypesInfo.Uses[id]
			if obj == nil {
				return false
			}
			cur, ok := st.lookup(obj)
			if !ok || cur.kind != vNum {
				return false
			}
			switch {
			case len(usedBeta) == 1 && ratEqual(r, ratAtom(usedBeta[0].beta)):
				sum, ok := sliceSum(usedBeta[0].obj)
				if !ok {
					return false
				}
				apply(obj, numVal(ratAdd(cur.r, sum)))
			case iterIndep && info.tripOK:
				apply(obj, numVal(ratAdd(cur.r, ratMul(info.trip, r))))
			default:
				return false
			}
		case token.ASSIGN:
			// out[i] = e or s = append(s, e)
			if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
				if !loopIdent(ix.Index) {
					return false
				}
				base, ok := unparen(ix.X).(*ast.Ident)
				if !ok {
					return false
				}
				obj := vr.pass.TypesInfo.Uses[base]
				if obj == nil {
					return false
				}
				cur, ok := st.lookup(obj)
				if !ok || cur.kind != vSlice {
					return false
				}
				switch {
				case len(usedBeta) == 1:
					beta := usedBeta[0]
					c, ok := ratDiv(r, ratAtom(beta.beta))
					if !ok || c.hasAtom(beta.beta) {
						return false
					}
					sum, ok := sliceSum(beta.obj)
					if !ok {
						return false
					}
					cur.sum = ratMul(c, sum)
					cur.sumKnown = true
					apply(obj, cur)
				case iterIndep && info.tripOK:
					cur.sum = ratMul(info.trip, r)
					cur.sumKnown = true
					apply(obj, cur)
				default:
					return false
				}
				continue
			}
			// Plain scalar reassignment: appendSelf handled the append shape
			// before evalAccum; anything else is not an accumulator.
			return false
		}
	}
	if info.loopVar != nil {
		st.assign(info.loopVar, vr.freshTyped(info.loopVar.Type(), info.loopVar.Name()))
	}
	if info.valVar != nil {
		st.assign(info.valVar, vr.freshTyped(info.valVar.Type(), info.valVar.Name()))
	}
	return true
}

// appendSelf matches the `s = append(s, e)` accumulator shape.
func appendSelf(lhs, rhs ast.Expr) (*ast.Ident, *ast.CallExpr, bool) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil, nil, false
	}
	fn, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return nil, nil, false
	}
	src, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok || src.Name != id.Name {
		return nil, nil, false
	}
	return id, call, true
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exemptOutcome reports whether a return outcome is audit-exempt: the meter
// is poisoned (Audit reports the failure, not the totals) or the function
// provably returns a non-nil error (ExecuteAudited skips the audit).
func (vr *verifier) exemptOutcome(o outcome) bool {
	if o.st.poisoned {
		return true
	}
	if len(o.results) == 0 {
		return false
	}
	last := o.results[len(o.results)-1]
	return (last.kind == vErr || last.kind == vOpaque) && last.errNonNil == triTrue
}
