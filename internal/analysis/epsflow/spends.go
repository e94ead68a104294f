package epsflow

// //dp:spends annotations close the two gaps a loop-free abstract
// interpretation cannot: structure-dependent loops whose trip count depends
// on the data (DAWA's dyadic candidate walk) and recursive builders
// (HybridTree's kd split). The annotation is never trusted: an annotated
// loop's declared total is cross-checked against the loop's own symbolic
// per-iteration footprint, and an annotated function is verified inductively
// — its body, with recursive calls replaced by their declared spends, must
// charge exactly the declared amount on every non-exempt path.
//
// Grammar:
//
//	//dp:spends [par] <expr>
//
// where <expr> is a Go expression over the function's parameters and
// receiver fields (loop annotations instead see the variables in scope at
// the loop): identifiers, single-level selectors (p.eps1), int/float
// literals, float64()/int() conversions, unary minus, and + - * / with
// parentheses. "par" declares that the function's charges form parallel
// scopes: two calls with the same declared amount count once (sibling
// recursive calls over disjoint regions), mirroring parallel composition.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/big"
	"strconv"
	"strings"
)

// spendAnno is one parsed //dp:spends annotation.
type spendAnno struct {
	expr ast.Expr // nil when malformed (reported at collection)
	par  bool
	raw  string
	pos  token.Pos
}

// parseSpend recognizes a //dp:spends comment. The second result reports
// whether the comment is a spend annotation at all; a nil anno with true
// means it is malformed.
func parseSpend(c *ast.Comment) (*spendAnno, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(strings.TrimSpace(text), "dp:spends") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "dp:spends"))
	par := false
	if rest == "par" || strings.HasPrefix(rest, "par ") {
		par = true
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "par"))
	}
	if rest == "" {
		return nil, true
	}
	expr, err := parser.ParseExpr(rest)
	if err != nil {
		return nil, true
	}
	return &spendAnno{expr: expr, par: par, raw: rest, pos: c.Pos()}, true
}

// collectSpends scans the package's comments, attaching each //dp:spends to
// its function declaration or to the loop on the following line. Any other
// placement (or a malformed expression) is a finding: an annotation that
// silently binds to nothing would be a verification hole.
func (vr *verifier) collectSpends() {
	fset := vr.pass.Fset
	for _, f := range vr.pass.Files {
		loopAt := map[int]ast.Stmt{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				loopAt[fset.Position(n.Pos()).Line] = n
			case *ast.RangeStmt:
				loopAt[fset.Position(n.Pos()).Line] = n
			}
			return true
		})
		funcDoc := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDoc[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				anno, isSpend := parseSpend(c)
				if !isSpend {
					continue
				}
				if anno == nil {
					vr.report(c, "malformed //dp:spends annotation: want //dp:spends [par] <expr>")
					continue
				}
				if fd := funcDoc[cg]; fd != nil {
					if obj := vr.pass.TypesInfo.Defs[fd.Name]; obj != nil {
						vr.spendFn[obj] = anno
						continue
					}
				}
				if s, ok := loopAt[fset.Position(cg.End()).Line+1]; ok {
					vr.spendFor[s] = anno
					continue
				}
				vr.report(c, "//dp:spends must annotate a function declaration or the loop on the next line")
			}
		}
	}
}

// evalSpendExpr evaluates an annotation expression in a name environment.
// The expression tree comes from parser.ParseExpr, so it carries no type
// information; resolution is purely by name.
func (vr *verifier) evalSpendExpr(e ast.Expr, env map[string]value, st *state) (rat, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return vr.evalSpendExpr(e.X, env, st)
	case *ast.BasicLit:
		if e.Kind != token.INT && e.Kind != token.FLOAT {
			return ratZero(), false
		}
		r := new(big.Rat)
		if _, ok := r.SetString(e.Value); !ok {
			return ratZero(), false
		}
		return ratFromPoly(polyConst(r)), true
	case *ast.Ident:
		if v, ok := env[e.Name]; ok && v.kind == vNum {
			return v.r, true
		}
		return ratZero(), false
	case *ast.SelectorExpr:
		id, ok := e.X.(*ast.Ident)
		if !ok {
			return ratZero(), false
		}
		base, ok := env[id.Name]
		if !ok || base.kind != vStruct {
			return ratZero(), false
		}
		if v, ok := base.fields[e.Sel.Name]; ok {
			if v.kind != vNum {
				return ratZero(), false
			}
			return v.r, true
		}
		if base.typ == nil {
			return ratZero(), false
		}
		stru, ok := base.typ.Type().Underlying().(*types.Struct)
		if !ok {
			return ratZero(), false
		}
		for i := 0; i < stru.NumFields(); i++ {
			if f := stru.Field(i); f.Name() == e.Sel.Name {
				var v value
				if base.lazyStem != "" {
					v = vr.lazyField(base.lazyStem, f.Name(), f.Type())
				} else {
					// Composite-built struct with the field unset: in Go an
					// omitted composite field is the zero value, same as
					// readField's fallback.
					v = vr.zeroValue(f.Type())
				}
				if v.kind != vNum {
					return ratZero(), false
				}
				return v.r, true
			}
		}
		return ratZero(), false
	case *ast.UnaryExpr:
		if e.Op != token.SUB {
			return ratZero(), false
		}
		r, ok := vr.evalSpendExpr(e.X, env, st)
		return ratNeg(r), ok
	case *ast.BinaryExpr:
		x, ok1 := vr.evalSpendExpr(e.X, env, st)
		y, ok2 := vr.evalSpendExpr(e.Y, env, st)
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
			return ratDiv(x, y)
		}
		return ratZero(), false
	case *ast.CallExpr:
		// Numeric conversions are transparent in annotation expressions.
		if id, ok := e.Fun.(*ast.Ident); ok && (id.Name == "float64" || id.Name == "int") && len(e.Args) == 1 {
			return vr.evalSpendExpr(e.Args[0], env, st)
		}
	}
	return ratZero(), false
}

// spendEnvAt builds the annotation environment for a loop site: everything
// visible in the innermost frame, by name.
func spendEnvAt(st *state) map[string]value {
	env := map[string]value{}
	for obj, v := range st.top().vars {
		env[obj.Name()] = v
	}
	return env
}

// chargeGuard recognizes `if x > 0 { m.Charge(label, x) }` (any spend
// method, amount syntactically equal to the guard's subject). See the
// comment at the call site in stmt for why the guard is dropped.
func (vr *verifier) chargeGuard(s *ast.IfStmt) bool {
	if s.Else != nil || s.Init != nil || len(s.Body.List) != 1 {
		return false
	}
	cmp, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var amt ast.Expr
	switch {
	case cmp.Op == token.GTR && isZeroLit(cmp.Y):
		amt = cmp.X
	case cmp.Op == token.LSS && isZeroLit(cmp.X):
		amt = cmp.Y
	default:
		return false
	}
	es, ok := s.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	name, ok := meterMethodName(vr.pass.TypesInfo, call)
	if !ok {
		return false
	}
	sig, ok := spendOps[name]
	if !ok || sig.epsArg >= len(call.Args) {
		return false
	}
	return types.ExprString(call.Args[sig.epsArg]) == types.ExprString(amt)
}

// collapseClamp recognizes and applies the charge-free clamp idiom
//
//	if <cond> { v = <expr>; ... }
//
// no else, no init, the body nothing but plain assignments (or ++/--) to
// local numeric variables whose current values are epsilon-free. Neither
// arm charges, and the arms differ only in values the budget never sees,
// so instead of forking the path the assigned variables are forgotten
// (fresh unknowns) and a single state falls through. Grid-style code
// clamps per cell; without this rule those forks multiply into a path
// explosion. The eps-free check is on the variable's current value: a
// clamp that overwrites part of the tracked budget arithmetic still forks
// so no eps-linearity is lost.
//
// For an integer variable the forgotten value is re-seeded with a lower
// bound when one is provable across both arms — from the negated
// condition on the skip arm (`if v < 0 { ... }` leaves v >= 0) and from
// the assigned value on the taken arm — because integer lower bounds are
// what trip counts and point collapses (kd >= 0, kd <= 1, kd != 0 means
// kd == 1) are built from.
func (vr *verifier) collapseClamp(s *ast.IfStmt, st *state) bool {
	if s.Init != nil || s.Else != nil || vr.touchesNode(s) {
		return false
	}
	type clamp struct {
		obj types.Object
		rhs ast.Expr // nil for ++/--/op-assign: arm value unknown
	}
	var clamps []clamp
	for _, bs := range s.Body.List {
		switch bs := bs.(type) {
		case *ast.AssignStmt:
			if bs.Tok == token.DEFINE || len(bs.Lhs) != len(bs.Rhs) {
				return false
			}
			for i, lhs := range bs.Lhs {
				obj, ok := vr.clampTarget(lhs, st)
				if !ok {
					return false
				}
				rhs := bs.Rhs[i]
				if bs.Tok != token.ASSIGN {
					rhs = nil
				}
				clamps = append(clamps, clamp{obj: obj, rhs: rhs})
			}
		case *ast.IncDecStmt:
			obj, ok := vr.clampTarget(bs.X, st)
			if !ok {
				return false
			}
			clamps = append(clamps, clamp{obj: obj})
		default:
			return false
		}
	}
	if len(clamps) == 0 {
		return false
	}
	for _, c := range clamps {
		fresh := vr.freshTyped(c.obj.Type(), c.obj.Name())
		if isIntType(c.obj.Type()) && fresh.kind == vNum {
			if lo, ok := vr.clampLower(s, c.obj, c.rhs, st); ok && lo >= 0 {
				if id, _, _, ok2 := fresh.r.linearAtom(); ok2 {
					st.cons.addLower(id, float64(lo), false, true)
				}
			}
		}
		st.assign(c.obj, fresh)
	}
	return true
}

// clampTarget resolves a clamp body lvalue: a named local whose current
// value is a budget-free number.
func (vr *verifier) clampTarget(e ast.Expr, st *state) (types.Object, bool) {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	obj := vr.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = vr.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil, false
	}
	v, ok := st.lookup(obj)
	if !ok || v.kind != vNum || v.r.hasAtom(vr.epsID) {
		return nil, false
	}
	return obj, true
}

// clampLower derives a lower bound holding on both arms of a collapsed
// integer clamp: the skip arm's bound comes from the negated condition
// (v < C false means v >= C) or from the variable's provable current
// bound; the taken arm's from the assigned expression.
func (vr *verifier) clampLower(s *ast.IfStmt, obj types.Object, rhs ast.Expr, st *state) (int, bool) {
	skip, ok := vr.clampCondLower(s.Cond, obj)
	if !ok {
		if v, found := st.lookup(obj); found && v.kind == vNum {
			skip, ok = vr.provedLower(v.r, st)
		}
		if !ok {
			return 0, false
		}
	}
	if rhs == nil {
		return 0, false
	}
	taken, ok := vr.clampArmLower(rhs, st)
	if !ok {
		return 0, false
	}
	if taken < skip {
		return taken, true
	}
	return skip, true
}

// clampCondLower reads the skip-arm bound off a `v < C` / `v <= C` guard.
func (vr *verifier) clampCondLower(cond ast.Expr, obj types.Object) (int, bool) {
	cmp, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	id, ok := unparen(cmp.X).(*ast.Ident)
	if !ok || vr.pass.TypesInfo.Uses[id] != obj {
		return 0, false
	}
	c, ok := litInt(cmp.Y)
	if !ok {
		return 0, false
	}
	switch cmp.Op {
	case token.LSS:
		return c, true
	case token.LEQ:
		return c + 1, true
	}
	return 0, false
}

// clampArmLower bounds the value a clamp arm assigns: an int literal is
// itself, a variable contributes its provable bound.
func (vr *verifier) clampArmLower(rhs ast.Expr, st *state) (int, bool) {
	if c, ok := litInt(rhs); ok {
		return c, true
	}
	if sizeQuery(unparen(rhs)) {
		// A dimension getter memoizes without forking, so it is safe to
		// evaluate while deciding whether to collapse.
		v := vr.memoValue(unparen(rhs), st)
		if v.kind == vNum {
			return vr.provedLower(v.r, st)
		}
		return 0, false
	}
	id, ok := unparen(rhs).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := vr.pass.TypesInfo.Uses[id]
	if obj == nil {
		return 0, false
	}
	v, ok := st.lookup(obj)
	if !ok || v.kind != vNum {
		return 0, false
	}
	return vr.provedLower(v.r, st)
}

// provedLower returns the strongest of {1, 0} provable as a lower bound.
func (vr *verifier) provedLower(r rat, st *state) (int, bool) {
	rs := st.cons.substPoints(r, vr.at)
	if st.cons.cmpZero(ratSub(rs, ratFloat(1)), vr.at, ">=") == triTrue {
		return 1, true
	}
	if st.cons.cmpZero(rs, vr.at, ">=") == triTrue {
		return 0, true
	}
	return 0, false
}

func litInt(e ast.Expr) (int, bool) {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	n, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, false
	}
	return n, true
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok {
		return false
	}
	switch lit.Value {
	case "0", "0.0", "0.":
		return true
	}
	return false
}

// annotatedLoop verifies a //dp:spends-annotated loop. When the trip count
// is derivable the annotation is a pure cross-check against the loop's exact
// scaled footprint. When it is not (a range over structure-dependent data),
// the loop must reduce to a single per-iteration charge stream of fixed
// amount u, the declared total A must be an epsilon-free multiple of u
// (A = q*u: the annotation may override the iteration count, never the
// rate), and A is then applied as the loop's contribution.
func (vr *verifier) annotatedLoop(info loopInfo, anno *spendAnno, st *state) []outcome {
	if anno.expr == nil {
		vr.abort(info.node, "malformed //dp:spends on this loop")
	}
	if !vr.touchesNode(info.body) {
		vr.report(info.node, "//dp:spends annotates a loop with no budget charges")
		return vr.chargeFreeLoop(info, st)
	}
	amt, ok := vr.evalSpendExpr(anno.expr, spendEnvAt(st), st)
	if !ok {
		vr.abort(info.node, "cannot evaluate //dp:spends expression %q at this loop", anno.raw)
	}

	var outs []outcome
	runs := triUnknown
	if info.tripOK {
		runs = st.cons.cmpZero(st.cons.substPoints(info.trip, vr.at), vr.at, ">")
		if runs == triFalse {
			return fallOut(st)
		}
		if runs == triUnknown {
			zs := st.clone()
			if vr.assume(zs, info.trip, "<=") {
				outs = append(outs, outcome{st: zs, ctl: ctlFall})
			}
			vr.tick(info.node)
			if !vr.assume(st, info.trip, ">") {
				return outs
			}
		}
	}

	vr.havocAssigned(info.body, st)
	iota := vr.bindLoopVars(info, st)
	mark := len(vr.at.names)
	snap := make(map[string]*meterState, len(st.meters))
	for k, ms := range st.meters {
		snap[k] = ms.clone()
	}

	seen := map[string]bool{}
	for _, o := range vr.block(info.body.List, st) {
		switch o.ctl {
		case ctlReturn:
			if vr.exemptOutcome(o) {
				outs = append(outs, o)
				continue
			}
			vr.report(o.retPos, "return from inside a budget-charging loop leaves the loop's spend unverifiable")
			o.st.poisoned = true
			outs = append(outs, o)
		case ctlBreak:
			vr.report(info.node, "break out of a //dp:spends-annotated loop leaves its declared spend unverifiable")
			o.st.poisoned = true
			outs = append(outs, outcome{st: o.st, ctl: ctlFall})
		default:
			deltas, ok := vr.loopDeltas(o, snap, iota, mark, info, true)
			if !ok {
				o.st.poisoned = true
				outs = append(outs, outcome{st: o.st, ctl: ctlFall})
				continue
			}
			sig := vr.deltaSignature(deltas)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			if info.tripOK {
				outs = append(outs, vr.annotatedClosable(o, snap, deltas, amt, info)...)
			} else {
				outs = append(outs, vr.annotatedOpen(o, snap, deltas, amt, anno, info)...)
			}
		}
	}
	return outs
}

// annotatedClosable cross-checks the annotation against the exact scaled
// footprint, which remains the truth applied to the continuation.
func (vr *verifier) annotatedClosable(o outcome, snap map[string]*meterState, deltas []meterDelta, amt rat, info loopInfo) []outcome {
	contrib := ratZero()
	for _, d := range deltas {
		contrib = ratAdd(contrib, ratMul(info.trip, ratAdd(ratAdd(d.seq, d.fam), d.famPer)))
		for _, k := range d.parNew {
			contrib = ratAdd(contrib, d.parEnt[k].amount)
		}
	}
	cs := o.st.cons
	if !ratEqual(cs.substPoints(contrib, vr.at), cs.substPoints(amt, vr.at)) {
		vr.report(info.node, "loop charges %s but //dp:spends declares %s",
			contrib.render(vr.at), amt.render(vr.at))
	}
	if vr.applyScaled(o, snap, deltas, info.trip, info.tripOK, info) {
		return []outcome{o}
	}
	return nil
}

// annotatedOpen applies the declared total to a loop whose trip count is
// not derivable, after the rate check described on annotatedLoop.
func (vr *verifier) annotatedOpen(o outcome, snap map[string]*meterState, deltas []meterDelta, amt rat, anno *spendAnno, info loopInfo) []outcome {
	if len(deltas) != 1 {
		vr.report(info.node, "cannot verify //dp:spends: the loop charges %d meters (want exactly one)", len(deltas))
		o.st.poisoned = true
		return []outcome{{st: o.st, ctl: ctlFall}}
	}
	d := deltas[0]
	var u rat
	streams, par := 0, false
	if !d.seq.isZero() {
		streams, u = streams+1, d.seq
	}
	if !d.fam.isZero() {
		streams, u = streams+1, d.fam
	}
	if !d.famPer.isZero() {
		streams, u, par = streams+1, d.famPer, true
	}
	if streams != 1 || len(d.parNew) > 0 {
		vr.report(info.node, "cannot verify //dp:spends: the loop body must reduce to a single per-iteration charge stream")
		o.st.poisoned = true
		return []outcome{{st: o.st, ctl: ctlFall}}
	}
	q, ok := ratDiv(o.st.cons.substPoints(amt, vr.at), o.st.cons.substPoints(u, vr.at))
	if !ok || q.hasAtom(vr.epsID) {
		vr.report(info.node, "//dp:spends declares %s, which is not an epsilon-free multiple of the per-iteration charge %s",
			amt.render(vr.at), u.render(vr.at))
		o.st.poisoned = true
		return []outcome{{st: o.st, ctl: ctlFall}}
	}
	old := snap[d.key].clone()
	ms := o.st.meters[d.key]
	ms.seq = old.seq
	ms.famSum = old.famSum
	if par {
		ms.famSum = ratAdd(ms.famSum, amt)
	} else {
		ms.seq = ratAdd(ms.seq, amt)
	}
	ms.par = make(map[chargeKey]parEntry, len(old.par))
	ms.parIdx = append([]chargeKey{}, old.parIdx...)
	for k, e := range old.par {
		ms.par[k] = e
	}
	return []outcome{o}
}

// verifyAnnotatedFn checks a //dp:spends-annotated function inductively:
// with fresh symbolic parameters (integer parameters seeded nonnegative,
// as every count in budget code is), and with recursive calls contributing
// their declared spends, every non-exempt path must charge exactly the
// declared amount into the meter parameter.
func (vr *verifier) verifyAnnotatedFn(obj types.Object, decl *ast.FuncDecl, anno *spendAnno) {
	if anno.expr == nil || decl.Body == nil {
		return // malformed or bodyless: reported at collection / call sites
	}
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(abortError)
			if !ok {
				panic(r)
			}
			pos := ae.pos
			if pos == token.NoPos {
				pos = decl.Pos()
			}
			vr.pass.Reportf(pos, "cannot verify //dp:spends on %s: %s", obj.Name(), ae.msg)
		}
	}()
	vr.budget = pathBudget
	vr.depth = 0
	vr.inlining = map[*ast.FuncDecl]bool{}
	vr.mech = obj.Name()

	st := &state{cons: newConstraints(), meters: map[string]*meterState{}, memo: map[string]value{}}
	fr := &frame{fn: decl, vars: map[types.Object]value{}}
	env := map[string]value{}
	meterKey := ""

	bind := func(name *ast.Ident) {
		o := vr.pass.TypesInfo.Defs[name]
		if o == nil {
			return
		}
		var v value
		if isMeterType(o.Type()) {
			key := vr.freshStem("meter:" + obj.Name())
			ms := newMeterState(ratAtom(vr.at.fresh("budget", false)), true)
			st.setMeter(key, ms)
			v = value{kind: vMeter, meter: key, bAtom: -1}
			meterKey = key
		} else {
			v = vr.freshTyped(o.Type(), o.Name())
			if isIntType(o.Type()) && v.kind == vNum {
				if id, c1, c0, ok := v.r.linearAtom(); ok && c1.Cmp(big.NewRat(1, 1)) == 0 && c0.Sign() == 0 {
					st.cons.addLower(id, 0, false, true)
				}
			}
		}
		fr.vars[o] = v
		env[name.Name] = v
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		bind(decl.Recv.List[0].Names[0])
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			bind(name)
		}
	}
	if meterKey == "" {
		vr.report(decl, "//dp:spends function %s has no meter parameter", obj.Name())
		return
	}
	vr.root, vr.recording = meterKey, obj
	defer func() { vr.recording = nil }()
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if o := vr.pass.TypesInfo.Defs[name]; o != nil {
					fr.results = append(fr.results, o)
					fr.vars[o] = vr.zeroValue(o.Type())
				}
			}
		}
	}
	amt, ok := vr.evalSpendExpr(anno.expr, env, st)
	if !ok {
		vr.report(decl, "cannot evaluate the //dp:spends expression %q over %s's parameters", anno.raw, obj.Name())
		return
	}
	st.frames = []*frame{fr}
	for _, o := range vr.block(decl.Body.List, st) {
		if vr.exemptOutcome(o) {
			continue
		}
		ms, ok := o.st.meters[meterKey]
		if !ok {
			continue
		}
		total := ratAdd(ms.total(), vr.consumeAnnEvents(o.st, meterKey))
		cs := o.st.cons
		if !ratEqual(cs.substPoints(total, vr.at), cs.substPoints(amt, vr.at)) {
			at := o.retPos
			if at == nil {
				at = ast.Node(decl)
			}
			vr.report(at, "%s charges %s on this path but //dp:spends declares %s",
				obj.Name(), total.render(vr.at), amt.render(vr.at))
		}
	}
}
