// Package privtaint proves the release invariant the whole benchmark
// rests on: every value derived from the private histogram that reaches a
// mechanism's output must first cross an accountant-metered noise draw.
//
// It runs the interprocedural engine in internal/analysis/dataflow over
// dpbench/internal/algo and dpbench/internal/serve. Taint sources are
// values of the private-histogram type (vec.Vector) and anything
// arithmetically derived; sanitizers are the noise.Meter draw methods
// (a value that combined with a fresh metered draw is, by definition,
// released) and callees that receive the meter; sinks are the out buffer
// of Plan.Execute, error construction (fmt.Errorf / errors.New — an error
// string is client-visible), HTTP response paths in serve, the durable
// budget ledger's commit surface in dpbench/internal/ledger (AppendRecord,
// EncodeRecord, Tree.Append, Batcher.Submit, Store.Append — ledger records
// and Merkle leaves must carry already-charged request metadata only, since
// /v1/root and /v1/proof republish them to any caller), and — because
// data-dependent control flow is a side channel the mechanisms must charge
// for — branch conditions in Execute-phase code.
//
// Plan-time branching on the raw data is deliberately NOT flagged in algo:
// under the repo's Plan/Execute contract, plans hoist data summaries but
// the structure they choose is only released through Execute's metered
// output, so branch-taint is scoped to functions reachable from an Execute
// method. In serve every function is request-path, so all branches are
// checked there.
//
// The audited escape hatch is `//dp:public <justification>` on the line of
// (or above) an assignment, struct field declaration, or function
// declaration: it pins the value public. It exists for the paper's
// declared public side information — the dataset scale used by MWEM, SF
// and the grid mechanisms for layout (Principle 7: scale as side
// information), and the serve metadata endpoint that reports it.
//
// Out of scope by design: internal/core and the experiment harness consume
// the raw histogram to measure error against the truth — that is the
// benchmark's job, not a privacy leak — and internal/vec/tree/noise are
// the substrate the model describes rather than analyzes.
package privtaint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"dpbench/internal/analysis"
	"dpbench/internal/analysis/dataflow"
	"dpbench/internal/analysis/meterapi"
)

// Analyzer is the privtaint pass.
var Analyzer = &analysis.Analyzer{
	Name: "privtaint",
	Doc:  "private-histogram taint must cross an accountant-metered noise draw before reaching an output, error, response, or execute-phase branch",
	Run:  run,
}

const (
	algoPkg   = "dpbench/internal/algo"
	servePkg  = "dpbench/internal/serve"
	vecPkg    = "dpbench/internal/vec"
	ledgerPkg = "dpbench/internal/ledger"
)

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	path := pass.Pkg.Path()
	inServe := strings.HasPrefix(path, servePkg)
	if !strings.HasPrefix(path, algoPkg) && !inServe {
		return nil
	}
	eng := dataflow.New(pass, &model{info: pass.TypesInfo})
	eng.Run()
	r := &reporter{pass: pass, eng: eng}

	// Branch-taint scope: in algo, only the Execute phase; in serve,
	// every function is on the request path.
	var roots []*dataflow.Func
	for _, f := range eng.Funcs() {
		if isExecuteMethod(f) {
			roots = append(roots, f)
		}
	}
	branchScope := eng.CallGraphReachable(roots)

	for _, f := range eng.Funcs() {
		r.checkFunc(f, inServe || branchScope[f])
	}
	return nil
}

// isExecuteMethod reports whether f is a Plan.Execute implementation: a
// method named Execute with a []float64 output parameter.
func isExecuteMethod(f *dataflow.Func) bool {
	if f.Decl.Recv == nil || f.Decl.Name.Name != "Execute" {
		return false
	}
	return len(outParams(f)) > 0
}

// outParams returns the identifiers of f's []float64 parameters — the
// released-output buffers of an Execute method.
func outParams(f *dataflow.Func) []*ast.Ident {
	var out []*ast.Ident
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	i := 0
	for _, field := range f.Decl.Type.Params.List {
		for _, name := range field.Names {
			if i < sig.Params().Len() {
				if s, ok := sig.Params().At(i).Type().(*types.Slice); ok {
					if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Float64 {
						out = append(out, name)
					}
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return out
}

// reporter walks converged function bodies and reports source→sink paths.
type reporter struct {
	pass *analysis.Pass
	eng  *dataflow.Engine
}

// checkFunc reports taint reaching sinks inside one function.
func (r *reporter) checkFunc(f *dataflow.Func, branchScoped bool) {
	// Sink variables: the out params of an Execute method, plus locals
	// aliasing them through slicing.
	sinks := map[types.Object]bool{}
	if isExecuteMethod(f) {
		for _, id := range outParams(f) {
			if obj := r.pass.TypesInfo.Defs[id]; obj != nil {
				sinks[obj] = true
			}
		}
		r.collectAliases(f, sinks)
	}

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			r.checkAssign(f, n, sinks)
		case *ast.CallExpr:
			r.checkCall(f, n, sinks, branchScoped)
		case *ast.IfStmt:
			r.checkBranch(f, n.Cond, branchScoped)
		case *ast.ForStmt:
			r.checkBranch(f, n.Cond, branchScoped)
		case *ast.SwitchStmt:
			r.checkBranch(f, n.Tag, branchScoped)
		}
		return true
	})
}

// collectAliases adds locals assigned from a sink buffer (slices of out)
// to the sink set, iterating to closure.
func (r *reporter) collectAliases(f *dataflow.Func, sinks map[types.Object]bool) {
	for {
		grew := false
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := r.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = r.pass.TypesInfo.Uses[id]
				}
				if obj == nil || sinks[obj] {
					continue
				}
				if root := r.rootObj(as.Rhs[i]); root != nil && sinks[root] {
					sinks[obj] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

// rootObj peels slices/parens/indexes to the root identifier's object.
func (r *reporter) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := r.pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return r.pass.TypesInfo.Defs[x]
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkAssign flags direct writes of private values into a sink buffer.
func (r *reporter) checkAssign(f *dataflow.Func, as *ast.AssignStmt, sinks map[types.Object]bool) {
	if len(sinks) == 0 || r.eng.PublicAt(as.Pos()) {
		return
	}
	n := len(as.Lhs)
	for i, lhs := range as.Lhs {
		root := r.rootObj(lhs)
		if root == nil || !sinks[root] {
			continue
		}
		// Only element/alias writes into the buffer are releases; plain
		// rebinding (out = ...) is checked through the new value itself.
		if _, isIdent := lhs.(*ast.Ident); isIdent && as.Tok.String() == "=" {
			continue
		}
		var v dataflow.Val
		if len(as.Rhs) == n {
			v = r.eng.Eval(f, as.Rhs[i])
		} else if len(as.Rhs) == 1 {
			v = r.eng.Eval(f, as.Rhs[0])
		}
		if v.K == dataflow.Priv {
			r.pass.Reportf(as.Pos(), "unsanitized private value written into Execute's output buffer %s: every released value must cross an accountant-metered noise draw (or carry an audited //dp:public justification)", root.Name())
		}
	}
}

// checkCall inspects one call site for sink writes, error/response sinks,
// and branch taint crossing into the callee.
func (r *reporter) checkCall(f *dataflow.Func, call *ast.CallExpr, sinks map[types.Object]bool, branchScoped bool) {
	if r.eng.PublicAt(call.Pos()) {
		return
	}
	facts := r.eng.Facts(f, call)
	calleeName := callName(call)
	for idx, wv := range facts.Effect.ArgWrites {
		if wv.K != dataflow.Priv || idx >= len(facts.ArgExprs) {
			continue
		}
		root := r.rootObj(facts.ArgExprs[idx])
		if root != nil && sinks[root] {
			r.pass.Reportf(call.Pos(), "call to %s writes an unsanitized private value into Execute's output buffer %s: route it through an accountant-metered noise draw first", calleeName, root.Name())
		}
	}
	for _, idx := range facts.Effect.ErrSinkArgs {
		if idx < len(facts.Args) && facts.Args[idx].K == dataflow.Priv {
			r.pass.Reportf(call.Pos(), "private value reaches an error constructed by %s: error strings are client-visible output and must not carry unreleased data", calleeName)
			break
		}
	}
	for _, idx := range facts.Effect.RespSinkArgs {
		if idx < len(facts.Args) && facts.Args[idx].K == dataflow.Priv {
			r.pass.Reportf(call.Pos(), "private value reaches the HTTP response via %s: responses may carry only released (metered) or audited //dp:public values", calleeName)
			break
		}
	}
	for _, idx := range facts.Effect.LedgerSinkArgs {
		if idx < len(facts.Args) && facts.Args[idx].K == dataflow.Priv {
			r.pass.Reportf(call.Pos(), "private value reaches the durable budget ledger via %s: ledger records and Merkle leaves carry already-charged request metadata only, and /v1/proof republishes them to any caller", calleeName)
			break
		}
	}
	if branchScoped && facts.BranchArgs != 0 {
		for i, av := range facts.Args {
			if facts.BranchArgs&(1<<uint(i)) != 0 && av.K == dataflow.Priv {
				r.pass.Reportf(call.Pos(), "private value passed to %s feeds a branch condition inside it: data-dependent control flow in the execute phase is an uncharged side channel", calleeName)
				break
			}
		}
	}
}

// checkBranch flags branch conditions on unsanitized private values.
func (r *reporter) checkBranch(f *dataflow.Func, cond ast.Expr, branchScoped bool) {
	if !branchScoped || cond == nil || r.eng.PublicAt(cond.Pos()) {
		return
	}
	if v := r.eng.Eval(f, cond); v.K == dataflow.Priv {
		r.pass.Reportf(cond.Pos(), "branch condition depends on an unsanitized private value: data-dependent control flow in the execute phase is an uncharged side channel — branch on a metered (noisy) value instead")
	}
}

// callName renders a call's function expression for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "function"
}

// model supplies the dpbench domain knowledge to the dataflow engine.
type model struct {
	info *types.Info
}

// Intrinsic marks private-histogram values as sources and the public shape
// surface as public.
func (m *model) Intrinsic(info *types.Info, e ast.Expr) (dataflow.Val, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return dataflow.Val{}, false
	}
	if tv.Value != nil || tv.IsNil() {
		return dataflow.Val{}, true // constants and nil are public
	}
	// The domain-shape field vec.Vector.Dims is public metadata.
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "Dims" {
		if isVecType(info.Types[sel.X].Type) {
			return dataflow.Val{}, true
		}
	}
	// Any expression of the private-histogram type is a source.
	if isVecType(tv.Type) {
		return dataflow.Val{K: dataflow.Priv}, true
	}
	return dataflow.Val{}, false
}

// vecShapeMethods are the Vector accessors that expose only the public
// domain shape, never cell contents.
var vecShapeMethods = map[string]bool{"N": true, "K": true, "Offset": true}

// meterDrawMethods return a fresh metered draw.
var meterDrawMethods = map[string]bool{"Laplace": true, "LaplacePar": true, "Geometric": true}

// meterDstArg maps the Into-style meter methods to the effect index of
// their destination buffer (receiver is 0, label 1, dst 2) and the kind
// the buffer holds afterwards.
var meterDstArg = map[string]struct {
	idx  int
	kind dataflow.Kind
}{
	"LaplaceVecInto":       {2, dataflow.Pub},
	"LaplaceVecParInto":    {2, dataflow.Pub},
	"LaplaceMechanismInto": {2, dataflow.Pub},
}

// Call classifies meter methods, the vec shape surface, error and response
// sinks, and meter-carrying callees.
func (m *model) Call(info *types.Info, call *ast.CallExpr, args []dataflow.Val) (dataflow.Effect, bool) {
	if name, ok := meterapi.MeterMethod(info, call); ok {
		return meterEffect(name, args), true
	}
	if eff, ok := ledgerSinkEffect(info, call, args); ok {
		return eff, true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			sig, sigOK := fn.Type().(*types.Signature)
			if sigOK && sig.Recv() != nil {
				if isVecType(sig.Recv().Type()) && vecShapeMethods[fn.Name()] {
					return dataflow.Effect{}, true
				}
				if fn.Name() == "Encode" && isJSONEncoder(sig.Recv().Type()) {
					// json.NewEncoder(w).Encode(v): the response sink.
					return dataflow.Effect{RespSinkArgs: argIdxRange(1, len(args))}, true
				}
			}
			if pkg := fn.Pkg(); pkg != nil && sigOK && sig.Recv() == nil {
				if (pkg.Path() == "fmt" && fn.Name() == "Errorf") ||
					(pkg.Path() == "errors" && fn.Name() == "New") {
					return dataflow.Effect{ErrSinkArgs: argIdxRange(0, len(args))}, true
				}
			}
		}
	}
	// A call handed an http.ResponseWriter consumes its other arguments
	// into the response.
	if idx := responseWriterArg(info, call, args); idx >= 0 {
		eff := dataflow.Effect{}
		for i := range args {
			if i != idx {
				eff.RespSinkArgs = append(eff.RespSinkArgs, i)
			}
		}
		return eff, true
	}
	// A callee that receives the accountant's meter is a sanctioned
	// noising path: its result is released and so are the mutable
	// buffers it fills (the tree MeasureInto idiom).
	if meterIdx := meterArg(info, call); meterIdx >= 0 {
		eff := dataflow.Effect{Sanitize: map[int]dataflow.Kind{}, ArgWrites: map[int]dataflow.Val{}}
		exprs := effectArgExprs(info, call)
		for i, ae := range exprs {
			if i == meterIdx || ae == nil {
				continue
			}
			if mutableExpr(info, ae) && !isMeterExpr(info, ae) {
				eff.Sanitize[i] = dataflow.Pub
				eff.ArgWrites[i] = dataflow.Val{}
			}
		}
		return eff, true
	}
	return dataflow.Effect{}, false
}

// meterEffect classifies one noise.Meter method call.
func meterEffect(name string, args []dataflow.Val) dataflow.Effect {
	if meterDrawMethods[name] {
		return dataflow.Effect{Result: dataflow.Val{K: dataflow.Draw}}
	}
	if dst, ok := meterDstArg[name]; ok {
		eff := dataflow.Effect{
			ArgWrites: map[int]dataflow.Val{dst.idx: {K: dst.kind}},
			Sanitize:  map[int]dataflow.Kind{dst.idx: dst.kind},
		}
		return eff
	}
	if name == "ExpMechBuf" || name == "ExpMechBufPar" {
		// (recv, label, scores, sens, eps, weights): the weights buffer is
		// filled with exp(scores) — an unmetered transform of the scores.
		eff := dataflow.Effect{}
		if len(args) > 5 {
			eff.ArgWrites = map[int]dataflow.Val{5: args[2]}
		}
		return eff
	}
	// Everything else (LaplaceMechanismInto, Geometric, ResetSub, Charge*,
	// accessors) returns released or structural values.
	return dataflow.Effect{}
}

// ledgerSinkCommits are the internal/ledger entry points whose arguments
// become durable, tamper-evident state: WAL frames, Merkle leaves, or the
// records behind them — all of which /v1/root and /v1/proof republish.
var ledgerSinkCommits = map[string]bool{
	"AppendRecord": true, // record → canonical leaf encoding
	"EncodeRecord": true,
	"Append":       true, // Tree.Append / Store.Append
	"Submit":       true, // Batcher.Submit
}

// ledgerSinkEffect classifies calls into internal/ledger's commit surface:
// every data argument (the receiver — a tree or batcher — is structural) is
// a ledger sink.
func ledgerSinkEffect(info *types.Info, call *ast.CallExpr, args []dataflow.Val) (dataflow.Effect, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != ledgerPkg || !ledgerSinkCommits[fn.Name()] {
		return dataflow.Effect{}, false
	}
	from := 0
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		from = 1
	}
	// The result (an encoded leaf, a sequence number) inherits the argument
	// taint so a tainted encoding flagged here stays tainted downstream.
	var res dataflow.Val
	for _, a := range args[from:] {
		res = dataflow.Combine(res, a)
	}
	return dataflow.Effect{Result: res, LedgerSinkArgs: argIdxRange(from, len(args))}, true
}

// calleeFunc resolves a call's static callee function object, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isVecType reports whether t is vec.Vector or *vec.Vector.
func isVecType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == vecPkg && obj.Name() == "Vector"
}

// isJSONEncoder reports whether t is *encoding/json.Encoder.
func isJSONEncoder(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && obj.Name() == "Encoder"
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

// isMeterType reports whether t is *noise.Meter.
func isMeterType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == meterapi.PkgPath && obj.Name() == "Meter"
}

// effectArgExprs mirrors the engine's effect index space: receiver first
// for method calls, then arguments.
func effectArgExprs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var exprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				exprs = append(exprs, sel.X)
			}
		}
	}
	return append(exprs, call.Args...)
}

// meterArg returns the effect index of a *noise.Meter argument (or
// receiver), or -1.
func meterArg(info *types.Info, call *ast.CallExpr) int {
	for i, ae := range effectArgExprs(info, call) {
		if isMeterExpr(info, ae) {
			return i
		}
	}
	return -1
}

// isMeterExpr reports whether an expression has type *noise.Meter.
func isMeterExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isMeterType(tv.Type)
}

// responseWriterArg returns the effect index of an http.ResponseWriter
// argument, or -1.
func responseWriterArg(info *types.Info, call *ast.CallExpr, args []dataflow.Val) int {
	exprs := effectArgExprs(info, call)
	for i, ae := range exprs {
		if i >= len(args) || ae == nil {
			continue
		}
		if tv, ok := info.Types[ae]; ok && isResponseWriter(tv.Type) {
			return i
		}
	}
	return -1
}

// mutableExpr reports whether e's type a callee could write through.
func mutableExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// argIdxRange returns [from, n).
func argIdxRange(from, n int) []int {
	var out []int
	for i := from; i < n; i++ {
		out = append(out, i)
	}
	return out
}

var _ = fmt.Sprintf // keep fmt for debug builds
