// Package dataflow is the interprocedural taint engine under dpbench's
// privacy analyzers. It grows the per-function syntax checks of the sibling
// packages into a package-wide dataflow fixpoint: every function gets a
// symbolic summary (how taint flows from its parameters into its results,
// its pointer/slice parameters, struct fields, and branch conditions), and
// summaries are applied at call sites until nothing changes — so taint
// planted in a mechanism's Plan constructor is still visible when its
// Execute method reads it back out of a plan field three calls later.
//
// # The lattice
//
// An abstract value has one of three kinds:
//
//   - Pub: public — constants, domain shape, workload structure, and
//     anything already released through a metered draw;
//   - Draw: a fresh accountant-metered noise draw (or a pure scaling of
//     one). Draw is the sanitizer: combining a Priv value with a Draw
//     yields Pub, which is exactly "crossed an accountant-metered draw";
//   - Priv: derived from the private histogram with no metered noise
//     crossed.
//
// Combining (arithmetic, or a call the engine cannot see into) follows the
// differential-privacy reading: Priv ⊕ Draw = Pub (the Laplace mechanism),
// but Priv ⊕ Pub = Priv (adding an already-released value to a raw count
// releases nothing), and a released value never re-sanitizes: (c1 + draw) is
// Pub, so c2 + (c1 + draw) stays Priv.
//
// # Summaries and the fixpoint
//
// A value may, instead of a concrete kind, depend symbolically on the
// enclosing function's parameters (a bitset). Summaries record, per
// function: the result value, what is written through each pointer/slice
// parameter, which package-local struct fields are written (symbolically,
// so a helper that stores its argument into a plan field taints the field
// with whatever each call site passes), which parameters feed branch
// conditions, and which parameters reach error-construction or
// response-writer sinks. Field taint is a package-global map keyed by
// (named type, field); it is how taint crosses the Plan/Execute split
// without any call edge between the two methods.
//
// The engine is deliberately flow-insensitive: assignments join. The one
// strong update is sanitization — a local buffer passed as the destination
// of a metered draw (or into any callee that receives the noise meter) is
// treated as released from then on, which is what makes the in-place
// "compute counts, noise them, infer" idiom of the tree mechanisms check
// cleanly. The model hooks (Model interface) supply the domain knowledge:
// what is a source, what a meter method does, what sinks look like.
//
// # Annotations
//
// A line comment `//dp:public <justification>` on a statement (or the line
// above it) forces the values it assigns to Pub; on a struct field
// declaration it pins the field Pub permanently; on a function declaration
// it pins the function's results Pub. It is the audited escape hatch for
// the paper's declared public side information (the dataset scale used by
// MWEM/SF/UGrid/AGrid, Principle 7) and must carry a justification.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dpbench/internal/analysis"
)

// Kind is one point of the taint lattice.
type Kind uint8

const (
	// Pub marks public values: constants, structure, released output.
	Pub Kind = iota
	// Draw marks a fresh accountant-metered noise draw.
	Draw
	// Priv marks values derived from the private input without crossing a
	// metered draw.
	Priv
)

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Draw:
		return "draw"
	case Priv:
		return "private"
	default:
		return "public"
	}
}

// Val is one abstract value: a concrete kind joined with a symbolic
// dependency on the enclosing function's parameters (receiver is bit 0 for
// methods, then parameters in declaration order).
type Val struct {
	K    Kind
	Deps uint64
}

// Join is the lattice join: worst kind, union of dependencies.
func Join(a, b Val) Val {
	if b.K > a.K {
		a.K = b.K
	}
	a.Deps |= b.Deps
	return a
}

// pureDraw reports whether v is a fresh draw with no parameter dependence.
func pureDraw(v Val) bool { return v.K == Draw && v.Deps == 0 }

// Combine models arithmetic combination. Combining with a pure draw
// sanitizes: the result of priv+draw is a released (Pub) value; pub*draw
// stays a draw (scaled noise still sanitizes); everything else joins.
func Combine(a, b Val) Val {
	if pureDraw(a) {
		a, b = b, a
	}
	if pureDraw(b) {
		if a.K == Pub && a.Deps == 0 {
			return Val{K: Draw}
		}
		if a.K == Draw {
			return Val{K: Draw}
		}
		// Priv or symbolic: crossing the draw releases it.
		return Val{K: Pub}
	}
	return Join(a, b)
}

// CombineAll folds Combine over vals (Pub for an empty list).
func CombineAll(vals []Val) Val {
	var out Val
	for i, v := range vals {
		if i == 0 {
			out = v
			continue
		}
		out = Combine(out, v)
	}
	return out
}

// FieldKey names one field of a package-local named struct type.
type FieldKey struct {
	Type  *types.TypeName
	Field string
}

// Effect describes what a call the engine cannot see into does with its
// abstract arguments. Argument indices include the receiver at 0 for
// method calls, shifting the ordinary arguments up by one.
type Effect struct {
	// Result is the call's result value (already resolved against args).
	Result Val
	// ArgWrites gives the value written through an argument.
	ArgWrites map[int]Val
	// Sanitize strong-cleanses the local variable passed at an index to
	// the given kind: from then on the buffer counts as released (Pub) or
	// as fresh noise (Draw), whatever later joins said.
	Sanitize map[int]Kind
	// ErrSinkArgs lists arguments formatted into an error value.
	ErrSinkArgs []int
	// RespSinkArgs lists arguments written to a client-visible response.
	RespSinkArgs []int
	// LedgerSinkArgs lists arguments committed to the durable budget
	// ledger (WAL frames, Merkle leaves, proof responses).
	LedgerSinkArgs []int
}

// Model supplies the analyzer-specific domain knowledge.
type Model interface {
	// Intrinsic gives an expression's a-priori value — taint sources
	// (e.g. the private histogram type) and known-public accessors —
	// or ok=false to evaluate structurally.
	Intrinsic(info *types.Info, e ast.Expr) (Val, bool)
	// Call describes a call with no analyzable body (cross-package,
	// interface, builtin the engine does not special-case). args holds
	// the abstract receiver (for methods) followed by the arguments.
	// ok=false applies the default rule: combine every argument, write
	// the combination through each mutable argument.
	Call(info *types.Info, call *ast.CallExpr, args []Val) (Effect, bool)
}

// Summary is one function's interprocedural abstraction.
type Summary struct {
	// Result is the join of every returned value (symbolic).
	Result Val
	// Writes maps a parameter index to the value written through it.
	Writes map[int]Val
	// FieldWrites records symbolic writes into package-local fields;
	// concrete parts are raised directly on Engine.fields.
	FieldWrites map[FieldKey]Val
	// Sanitizes marks parameters strong-cleansed inside (passed as a
	// metered-draw destination), with the resulting kind.
	Sanitizes map[int]Kind
	// Branch is the set of parameters feeding branch conditions.
	Branch uint64
	// ErrSink is the set of parameters reaching an error-construction
	// sink; RespSink the set reaching a response-writer sink; LedgerSink
	// the set committed to the durable budget ledger.
	ErrSink    uint64
	RespSink   uint64
	LedgerSink uint64
}

// Func is one analyzed function declaration.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// params maps the declared parameter objects (receiver first) to
	// their indices.
	params map[types.Object]int
	nparam int
	// vars is the flow-insensitive abstract store for locals.
	vars map[types.Object]Val
	// sanitized strong-cleanses locals that crossed a metered draw.
	sanitized map[types.Object]Kind
	// sum is the function's current summary.
	sum Summary
	// closureVars maps a local bound to a func literal (sse := func...)
	// to that literal, so calls through the variable can use its result.
	closureVars map[types.Object]*ast.FuncLit
	// closureResult is the joined return value of each nested literal.
	closureResult map[*ast.FuncLit]Val
	// closureDepth > 0 while walking a nested literal's body: returns then
	// belong to the literal, not the enclosing function.
	closureDepth int
	// curClosure is the literal whose body is being walked.
	curClosure *ast.FuncLit
}

// Engine runs the package-wide fixpoint.
type Engine struct {
	pass    *analysis.Pass
	model   Model
	funcs   []*Func
	byObj   map[*types.Func]*Func
	fields  map[FieldKey]Kind
	lockPub map[FieldKey]bool // //dp:public fields: pinned Pub
	globals map[types.Object]Kind
	pubLine map[string]map[int]bool // file -> lines carrying //dp:public
	pubFunc map[*types.Func]bool    // //dp:public functions: results pinned Pub
	changed bool
}

// New indexes the package and collects annotations; Run computes the
// fixpoint.
func New(pass *analysis.Pass, model Model) *Engine {
	e := &Engine{
		pass:    pass,
		model:   model,
		byObj:   map[*types.Func]*Func{},
		fields:  map[FieldKey]Kind{},
		lockPub: map[FieldKey]bool{},
		globals: map[types.Object]Kind{},
		pubLine: map[string]map[int]bool{},
		pubFunc: map[*types.Func]bool{},
	}
	e.collectAnnotations()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			f := &Func{
				Decl:          fd,
				Obj:           obj,
				params:        map[types.Object]int{},
				vars:          map[types.Object]Val{},
				sanitized:     map[types.Object]Kind{},
				closureVars:   map[types.Object]*ast.FuncLit{},
				closureResult: map[*ast.FuncLit]Val{},
				sum: Summary{
					Writes:      map[int]Val{},
					FieldWrites: map[FieldKey]Val{},
					Sanitizes:   map[int]Kind{},
				},
			}
			idx := 0
			if fd.Recv != nil {
				for _, field := range fd.Recv.List {
					for _, name := range field.Names {
						f.params[pass.TypesInfo.Defs[name]] = idx
					}
					idx++
				}
				if idx == 0 {
					idx = 1 // unnamed receiver still occupies slot 0
				}
			}
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						idx++
						continue
					}
					for _, name := range field.Names {
						f.params[pass.TypesInfo.Defs[name]] = idx
						idx++
					}
				}
			}
			f.nparam = idx
			if e.pubAt(fd.Pos()) {
				e.pubFunc[obj] = true
			}
			e.funcs = append(e.funcs, f)
			e.byObj[obj] = f
		}
	}
	return e
}

// collectAnnotations gathers //dp:public lines and pinned-public struct
// fields.
func (e *Engine) collectAnnotations() {
	for _, file := range e.pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "dp:public") {
					continue
				}
				pos := e.pass.Fset.Position(c.Pos())
				if e.pubLine[pos.Filename] == nil {
					e.pubLine[pos.Filename] = map[int]bool{}
				}
				e.pubLine[pos.Filename][pos.Line] = true
			}
		}
	}
	// Pin annotated struct fields.
	for _, file := range e.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := e.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !e.pubAt(field.Pos()) {
					continue
				}
				for _, name := range field.Names {
					e.lockPub[FieldKey{tn, name.Name}] = true
				}
			}
			return true
		})
	}
}

// pubAt reports whether pos's line (or the line above) carries //dp:public.
func (e *Engine) pubAt(pos token.Pos) bool {
	p := e.pass.Fset.Position(pos)
	lines := e.pubLine[p.Filename]
	return lines[p.Line] || lines[p.Line-1]
}

// Run iterates the whole package to a fixpoint. Sanitization makes the
// system non-monotone in principle, so iteration is capped; the cap is far
// above what any real package needs to converge.
func (e *Engine) Run() {
	for iter := 0; iter < 32; iter++ {
		e.changed = false
		for _, f := range e.funcs {
			e.analyzeFunc(f)
		}
		if !e.changed {
			return
		}
	}
}

// Funcs returns the analyzed functions in declaration order.
func (e *Engine) Funcs() []*Func { return e.funcs }

// FieldKind returns the package-global taint of a struct field.
func (e *Engine) FieldKind(key FieldKey) Kind {
	if e.lockPub[key] {
		return Pub
	}
	return e.fields[key]
}

// raiseField joins k into the global field taint.
func (e *Engine) raiseField(key FieldKey, k Kind) {
	if e.lockPub[key] || k <= e.fields[key] {
		return
	}
	e.fields[key] = k
	e.changed = true
}

// raiseGlobal joins k into a package-level variable's taint.
func (e *Engine) raiseGlobal(obj types.Object, k Kind) {
	if k <= e.globals[obj] {
		return
	}
	e.globals[obj] = k
	e.changed = true
}

// analyzeFunc re-evaluates one function body until its local store is
// stable, updating its summary and the global field/global taints.
func (e *Engine) analyzeFunc(f *Func) {
	for i := 0; i < 8; i++ {
		before := e.changed
		e.changed = false
		e.walkStmt(f, f.Decl.Body)
		stable := !e.changed
		e.changed = e.changed || before
		if stable {
			return
		}
	}
}

// setVar joins v into a local's abstract value.
func (e *Engine) setVar(f *Func, obj types.Object, v Val) {
	if obj == nil {
		return
	}
	if _, isParam := f.params[obj]; isParam {
		return // parameters stay symbolic
	}
	old, ok := f.vars[obj]
	nv := Join(old, v)
	if !ok || nv != old {
		f.vars[obj] = nv
		e.changed = true
	}
}

// sanitizeVar strong-cleanses a local.
func (e *Engine) sanitizeVar(f *Func, obj types.Object, k Kind) {
	if obj == nil {
		return
	}
	if idx, isParam := f.params[obj]; isParam {
		if old, ok := f.sum.Sanitizes[idx]; !ok || k < old {
			f.sum.Sanitizes[idx] = k
			e.changed = true
		}
		return
	}
	if old, ok := f.sanitized[obj]; !ok || k < old {
		f.sanitized[obj] = k
		e.changed = true
	}
}

// raiseSummary* helpers join into the summary, tracking change.

func (e *Engine) raiseResult(f *Func, v Val) {
	if f.closureDepth > 0 {
		lit := f.curClosure
		nv := Join(f.closureResult[lit], v)
		if nv != f.closureResult[lit] {
			f.closureResult[lit] = nv
			e.changed = true
		}
		return
	}
	nv := Join(f.sum.Result, v)
	if e.pubFunc[f.Obj] {
		nv = Val{}
	}
	if nv != f.sum.Result {
		f.sum.Result = nv
		e.changed = true
	}
}

func (e *Engine) raiseWrite(f *Func, idx int, v Val) {
	old := f.sum.Writes[idx]
	nv := Join(old, v)
	if nv != old {
		f.sum.Writes[idx] = nv
		e.changed = true
	}
}

func (e *Engine) raiseBits(dst *uint64, bits uint64) {
	if *dst|bits != *dst {
		*dst |= bits
		e.changed = true
	}
}

// Eval returns the final abstract value of an expression in f's context.
// It is side-effect-free with respect to the fixpoint only after Run has
// converged, which is when the report phase calls it.
func (e *Engine) Eval(f *Func, expr ast.Expr) Val { return e.eval(f, expr) }

// eval computes an expression's abstract value, applying call effects as a
// side effect (the fixpoint re-runs until those stabilize).
func (e *Engine) eval(f *Func, expr ast.Expr) Val {
	if expr == nil {
		return Val{}
	}
	if v, ok := e.model.Intrinsic(e.pass.TypesInfo, expr); ok {
		return v
	}
	switch x := expr.(type) {
	case *ast.Ident:
		return e.evalIdent(f, x)
	case *ast.ParenExpr:
		return e.eval(f, x.X)
	case *ast.SelectorExpr:
		return e.evalSelector(f, x)
	case *ast.IndexExpr:
		return Join(e.eval(f, x.X), e.eval(f, x.Index))
	case *ast.SliceExpr:
		return e.eval(f, x.X)
	case *ast.StarExpr:
		return e.eval(f, x.X)
	case *ast.UnaryExpr:
		return e.eval(f, x.X)
	case *ast.BinaryExpr:
		if isNilComparison(e.pass.TypesInfo, x) {
			// x == nil / x != nil reveals presence, not contents: the
			// Plan/Execute split sets optional fields by configuration
			// (Pside precompute vs Rside fallback), so nil-ness is
			// structural even when the pointee is private.
			return Val{}
		}
		return Combine(e.eval(f, x.X), e.eval(f, x.Y))
	case *ast.CallExpr:
		return e.evalCall(f, x)
	case *ast.CompositeLit:
		return e.evalComposite(f, x)
	case *ast.TypeAssertExpr:
		return e.eval(f, x.X)
	case *ast.FuncLit:
		// The closure body shares the enclosing store; its own parameters
		// are unknown inputs, treated Pub. Returns join into the literal's
		// own result slot (read by calls through a bound variable), never
		// into the enclosing function's summary.
		prevLit, prevDepth := f.curClosure, f.closureDepth
		f.curClosure, f.closureDepth = x, prevDepth+1
		e.walkStmt(f, x.Body)
		f.curClosure, f.closureDepth = prevLit, prevDepth
		return Val{}
	case *ast.KeyValueExpr:
		return e.eval(f, x.Value)
	default:
		return Val{}
	}
}

// evalIdent resolves an identifier: parameter (symbolic), sanitized or
// joined local, package-level variable, or constant.
func (e *Engine) evalIdent(f *Func, id *ast.Ident) Val {
	obj := e.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = e.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return Val{}
	}
	if idx, ok := f.params[obj]; ok {
		if k, sanitized := f.sum.Sanitizes[idx]; sanitized {
			return Val{K: k}
		}
		return Val{Deps: 1 << uint(idx)}
	}
	if k, ok := f.sanitized[obj]; ok {
		return Val{K: k}
	}
	if v, ok := f.vars[obj]; ok {
		return v
	}
	if v, isVar := obj.(*types.Var); isVar && v.Pkg() == e.pass.Pkg && e.isPackageLevel(obj) {
		return Val{K: e.globals[obj]}
	}
	return Val{}
}

// isNilComparison reports whether b compares against the nil literal.
func isNilComparison(info *types.Info, b *ast.BinaryExpr) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if tv, ok := info.Types[side]; ok && tv.IsNil() {
			return true
		}
	}
	return false
}

// isPackageLevel reports whether obj is declared at package scope.
func (e *Engine) isPackageLevel(obj types.Object) bool {
	return obj.Parent() == e.pass.Pkg.Scope()
}

// evalSelector resolves e.X.Sel: package-local struct fields use the global
// field taint; cross-package fields propagate the base value.
func (e *Engine) evalSelector(f *Func, sel *ast.SelectorExpr) Val {
	if obj := e.pass.TypesInfo.Uses[sel.Sel]; obj != nil {
		if v, isVar := obj.(*types.Var); isVar && v.IsField() {
			if key, ok := e.fieldKeyOf(sel); ok {
				return Val{K: e.FieldKind(key)}
			}
			return e.eval(f, sel.X)
		}
		if _, isFn := obj.(*types.Func); isFn {
			return Val{} // method value
		}
		if _, isPkgIdent := sel.X.(*ast.Ident); isPkgIdent {
			if _, isVar := obj.(*types.Var); isVar && obj.Pkg() == e.pass.Pkg {
				return Val{K: e.globals[obj]}
			}
		}
	}
	return e.eval(f, sel.X)
}

// fieldKeyOf resolves a selector to a package-local (type, field) key.
func (e *Engine) fieldKeyOf(sel *ast.SelectorExpr) (FieldKey, bool) {
	obj, ok := e.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return FieldKey{}, false
	}
	t := e.pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return FieldKey{}, false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return FieldKey{}, false
	}
	tn := named.Obj()
	if tn.Pkg() != e.pass.Pkg {
		return FieldKey{}, false
	}
	return FieldKey{tn, obj.Name()}, true
}

// evalComposite evaluates a composite literal, raising field taint for
// package-local struct literals, and returns the join of the elements.
func (e *Engine) evalComposite(f *Func, cl *ast.CompositeLit) Val {
	var out Val
	tn := e.localStructName(cl)
	var fieldsInOrder []*types.Var
	if tn != nil {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				fieldsInOrder = append(fieldsInOrder, st.Field(i))
			}
		}
	}
	for i, elt := range cl.Elts {
		var v Val
		var fieldName string
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = e.eval(f, kv.Value)
			if id, ok := kv.Key.(*ast.Ident); ok {
				fieldName = id.Name
			}
			if e.pubAt(kv.Pos()) {
				v = Val{}
			}
		} else {
			v = e.eval(f, elt)
			if tn != nil && i < len(fieldsInOrder) {
				fieldName = fieldsInOrder[i].Name()
			}
		}
		if tn != nil && fieldName != "" {
			e.writeField(f, FieldKey{tn, fieldName}, v)
			continue
		}
		out = Join(out, v)
	}
	// A struct literal's own value carries its field taints at this site.
	if tn != nil {
		for i, elt := range cl.Elts {
			var v Val
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if e.pubAt(kv.Pos()) {
					continue
				}
				v = e.eval(f, kv.Value)
			} else {
				if i < len(fieldsInOrder) && e.lockPub[FieldKey{tn, fieldsInOrder[i].Name()}] {
					continue
				}
				v = e.eval(f, elt)
			}
			// Pinned-public fields do not taint the literal either.
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, isID := kv.Key.(*ast.Ident); isID && e.lockPub[FieldKey{tn, id.Name}] {
					continue
				}
			}
			out = Join(out, v)
		}
	}
	return out
}

// localStructName resolves a composite literal's type to a package-local
// named struct.
func (e *Engine) localStructName(cl *ast.CompositeLit) *types.TypeName {
	t := e.pass.TypesInfo.Types[cl].Type
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != e.pass.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// writeField records a write into a package-local field: the concrete part
// raises the global field taint; the symbolic part joins the summary's
// field writes for call-site resolution.
func (e *Engine) writeField(f *Func, key FieldKey, v Val) {
	if e.lockPub[key] {
		return
	}
	e.raiseField(key, v.K)
	if v.Deps != 0 {
		old := f.sum.FieldWrites[key]
		nv := Join(old, v)
		if nv != old {
			f.sum.FieldWrites[key] = nv
			e.changed = true
		}
	}
}
