package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallFacts is what the report phase learns about one call site: the
// resolved effect (argument indices include the receiver at 0 for method
// calls), the callee's declaration if it is in this package, and the
// abstract argument values.
type CallFacts struct {
	Effect Effect
	Callee *Func
	Args   []Val
	// ArgExprs aligns with Args: receiver expression first for methods.
	ArgExprs []ast.Expr
	// BranchArgs marks arguments that feed a branch condition inside the
	// callee (transitively).
	BranchArgs uint64
}

// Facts recomputes the resolved call facts for a call site after the
// fixpoint has converged; report phases use it to check sink writes,
// branch taint, and error/response sinks at each site.
func (e *Engine) Facts(f *Func, call *ast.CallExpr) CallFacts {
	return e.callFacts(f, call)
}

// evalCall applies a call's effect to the store and returns its result.
func (e *Engine) evalCall(f *Func, call *ast.CallExpr) Val {
	// Conversions: T(x) propagates x.
	if tv, ok := e.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return e.eval(f, call.Args[0])
		}
		return Val{}
	}
	facts := e.callFacts(f, call)
	// Apply argument writes and sanitization to the caller's store.
	for idx, wv := range facts.Effect.ArgWrites {
		if idx < len(facts.ArgExprs) && facts.ArgExprs[idx] != nil {
			e.writeElem(f, facts.ArgExprs[idx], wv)
		}
	}
	for idx, k := range facts.Effect.Sanitize {
		if idx < len(facts.ArgExprs) && facts.ArgExprs[idx] != nil {
			e.sanitizeArg(f, facts.ArgExprs[idx], k)
		}
	}
	// Record symbolic sink flows for the summary.
	for _, idx := range facts.Effect.ErrSinkArgs {
		if idx < len(facts.Args) {
			e.raiseBits(&f.sum.ErrSink, facts.Args[idx].Deps)
		}
	}
	for _, idx := range facts.Effect.RespSinkArgs {
		if idx < len(facts.Args) {
			e.raiseBits(&f.sum.RespSink, facts.Args[idx].Deps)
		}
	}
	for _, idx := range facts.Effect.LedgerSinkArgs {
		if idx < len(facts.Args) {
			e.raiseBits(&f.sum.LedgerSink, facts.Args[idx].Deps)
		}
	}
	// Branch taint crossing the call: symbolic part into our summary.
	for i, av := range facts.Args {
		if facts.BranchArgs&(1<<uint(i)) != 0 {
			e.raiseBits(&f.sum.Branch, av.Deps)
		}
	}
	return facts.Effect.Result
}

// callFacts computes a call's effect: builtin, same-package summary, model
// hook, or the default conservative rule, in that order of specificity.
func (e *Engine) callFacts(f *Func, call *ast.CallExpr) CallFacts {
	argExprs, args := e.callArgs(f, call)
	facts := CallFacts{Args: args, ArgExprs: argExprs}

	// Builtins first: they have no object summaries.
	if eff, ok := e.builtinEffect(f, call, args); ok {
		facts.Effect = eff
		return facts
	}

	callee := e.calleeObj(call)
	if callee != nil {
		if cf, ok := e.byObj[callee]; ok {
			facts.Callee = cf
			facts.Effect = e.resolveSummary(cf, args)
			facts.BranchArgs = cf.sum.Branch
			return facts
		}
	}

	// Model hook for calls with no visible body.
	if eff, ok := e.model.Call(e.pass.TypesInfo, call, args); ok {
		facts.Effect = eff
		return facts
	}

	// Calls through a variable bound to a func literal: the literal's body
	// was interpreted inline (shared store), so its recorded result is
	// exact up to the closure's own parameters.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := e.pass.TypesInfo.Uses[id]; obj != nil {
			if lit, bound := f.closureVars[obj]; bound {
				facts.Effect = Effect{Result: f.closureResult[lit]}
				return facts
			}
		}
	}

	// Default rule: combine every argument; the combination is the result
	// and is written through each mutable argument. Error results are the
	// exception: taint entering an error is checked at the construction
	// sink, so the opaque value is public.
	combined := CombineAll(args)
	eff := Effect{Result: combined}
	if tv, ok := e.pass.TypesInfo.Types[call]; ok && isErrorType(tv.Type) {
		eff.Result = Val{}
	}
	for i, ae := range argExprs {
		if ae != nil && i < len(args) && e.mutableArg(ae) {
			if eff.ArgWrites == nil {
				eff.ArgWrites = map[int]Val{}
			}
			eff.ArgWrites[i] = combined
		}
	}
	facts.Effect = eff
	return facts
}

// callArgs flattens a call's receiver (for methods) and arguments into the
// effect index space, evaluating each.
func (e *Engine) callArgs(f *Func, call *ast.CallExpr) ([]ast.Expr, []Val) {
	var exprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj, isFn := e.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFn && obj != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				exprs = append(exprs, sel.X)
			}
		}
	}
	exprs = append(exprs, call.Args...)
	vals := make([]Val, len(exprs))
	for i, ae := range exprs {
		vals[i] = e.eval(f, ae)
	}
	return exprs, vals
}

// calleeObj resolves a call to its static callee, if any.
func (e *Engine) calleeObj(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := e.pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := e.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// resolveSummary instantiates a callee's symbolic summary against concrete
// argument values. Substitution uses Combine, so a helper that returns
// a+b sanitizes when one argument is a pure draw — same rule as inlining
// the body would give.
func (e *Engine) resolveSummary(cf *Func, args []Val) Effect {
	eff := Effect{Result: resolveVal(cf.sum.Result, args)}
	for idx, wv := range cf.sum.Writes {
		if eff.ArgWrites == nil {
			eff.ArgWrites = map[int]Val{}
		}
		eff.ArgWrites[idx] = Join(eff.ArgWrites[idx], resolveVal(wv, args))
	}
	for idx, k := range cf.sum.Sanitizes {
		if eff.Sanitize == nil {
			eff.Sanitize = map[int]Kind{}
		}
		eff.Sanitize[idx] = k
	}
	// Symbolic field writes resolve here: the caller's concrete argument
	// taints the field globally.
	for key, wv := range cf.sum.FieldWrites {
		rv := resolveVal(wv, args)
		e.raiseField(key, rv.K)
	}
	// Sink flows: a concrete Priv argument reaching a sink inside the
	// callee is reported by the report phase via Facts; here only the
	// symbolic part is threaded (done by evalCall through ErrSinkArgs).
	eff.ErrSinkArgs = bitsToIdx(cf.sum.ErrSink, len(args))
	eff.RespSinkArgs = bitsToIdx(cf.sum.RespSink, len(args))
	eff.LedgerSinkArgs = bitsToIdx(cf.sum.LedgerSink, len(args))
	return eff
}

// resolveVal substitutes concrete argument values for a summary value's
// parameter dependencies, combining (not joining) so draws sanitize.
func resolveVal(v Val, args []Val) Val {
	out := Val{K: v.K}
	for i := 0; i < len(args) && i < 64; i++ {
		if v.Deps&(1<<uint(i)) != 0 {
			out = Combine(out, args[i])
		}
	}
	// Dependencies beyond the supplied argument list (variadic quirk):
	// keep them symbolic only if they could still bind; they cannot, so
	// drop them — the concrete part already includes the callee's own
	// contribution.
	return out
}

// bitsToIdx expands a parameter bitset into indices bounded by n.
func bitsToIdx(bits uint64, n int) []int {
	if bits == 0 {
		return nil
	}
	var out []int
	for i := 0; i < n && i < 64; i++ {
		if bits&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// sanitizeArg strong-cleanses the local variable (or records the parameter
// sanitize) behind an argument expression, peeling slices.
func (e *Engine) sanitizeArg(f *Func, arg ast.Expr, k Kind) {
	switch x := ast.Unparen(arg).(type) {
	case *ast.Ident:
		obj := e.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = e.pass.TypesInfo.Defs[x]
		}
		e.sanitizeVar(f, obj, k)
	case *ast.SliceExpr:
		e.sanitizeArg(f, x.X, k)
	case *ast.SelectorExpr:
		// Sanitizing a field write: the field now holds released values,
		// but other writers may still taint it; record as a field write of
		// the sanitize class rather than a lock.
		if key, ok := e.fieldKeyOf(x); ok {
			e.raiseField(key, k)
		}
	}
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == nil && obj.Name() == "error"
}

// mutableArg reports whether an argument expression has a type a callee
// could write through.
func (e *Engine) mutableArg(arg ast.Expr) bool {
	t := e.pass.TypesInfo.Types[arg].Type
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan:
		return true
	}
	return false
}

// builtinEffect models the builtins the taint analysis cares about.
func (e *Engine) builtinEffect(f *Func, call *ast.CallExpr, args []Val) (Effect, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return Effect{}, false
	}
	if _, isBuiltin := e.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return Effect{}, false
	}
	switch id.Name {
	case "copy":
		// copy(dst, src): dst receives src's taint.
		eff := Effect{}
		if len(args) == 2 {
			eff.ArgWrites = map[int]Val{0: args[1]}
		}
		return eff, true
	case "append":
		// The result (and backing array) holds the join of everything.
		var out Val
		for _, a := range args {
			out = Join(out, a)
		}
		return Effect{Result: out, ArgWrites: map[int]Val{0: out}}, true
	case "len", "cap":
		// Container length is shape, kept public by the engine's design:
		// mechanisms size buffers by domain, not by data. A data-dependent
		// length would be built from tainted writes the analysis flags at
		// the write site instead.
		return Effect{}, true
	case "make", "new", "min", "max", "real", "imag", "complex":
		var out Val
		if id.Name == "min" || id.Name == "max" {
			for _, a := range args {
				out = Join(out, a)
			}
		}
		return Effect{Result: out}, true
	case "clear", "delete", "close", "panic", "print", "println", "recover":
		return Effect{}, true
	}
	return Effect{}, false
}

// CallGraphReachable computes the same-package functions reachable from the
// given roots through static calls (closures count as their enclosing
// function). Analyzers use it to scope branch-taint checks to the
// execution phase of the Plan/Execute split.
func (e *Engine) CallGraphReachable(roots []*Func) map[*Func]bool {
	reach := map[*Func]bool{}
	var visit func(f *Func)
	visit = func(f *Func) {
		if f == nil || reach[f] {
			return
		}
		reach[f] = true
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj := e.calleeObj(call); obj != nil {
				if cf, ok := e.byObj[obj]; ok {
					visit(cf)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	return reach
}

// PublicAt exposes the //dp:public line check to analyzers (for
// exempting annotated report sites).
func (e *Engine) PublicAt(pos token.Pos) bool { return e.pubAt(pos) }
