// Package noisegate enforces the metered-randomness invariant inside
// dpbench/internal/algo: every privacy-relevant random draw must flow
// through an accountant-backed noise.Meter, because a draw the accountant
// never sees is a spend the budget audit can never prove. See PR 3's ledger
// design in internal/noise.
//
// Flagged, in non-test files of internal/algo/...:
//
//   - any use of a math/rand or math/rand/v2 package member that is not a
//     type name — rand.New, rand.NewSource, package-level draws;
//   - method calls on a raw *rand.Rand;
//   - math.Log / math.Exp (and Log1p / Expm1) applied to an expression that
//     contains a raw draw: hand-rolled inverse-CDF noise synthesis bypasses
//     both the accountant and the noise package's numerical contracts.
//
// Mentioning the *rand.Rand type in a signature is fine — the Algorithm
// interface threads an rng to the meter constructor — only draws and
// generator construction are gated.
package noisegate

import (
	"go/ast"
	"go/types"
	"strings"

	"dpbench/internal/analysis"
)

// Analyzer is the noisegate pass.
var Analyzer = &analysis.Analyzer{
	Name: "noisegate",
	Doc:  "privacy-relevant randomness in internal/algo must flow through an accountant-backed noise.Meter",
	Run:  run,
}

const scope = "dpbench/internal/algo"

func randPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !strings.HasPrefix(pass.Pkg.Path(), scope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.CallExpr:
				checkSynthesis(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSelector flags non-type references into math/rand, including method
// values and calls on *rand.Rand receivers.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || !randPkg(obj.Pkg().Path()) {
		return
	}
	if _, isType := obj.(*types.TypeName); isType {
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			pass.Reportf(sel.Pos(), "draw on a raw *rand.Rand (%s): privacy-relevant randomness must flow through an accountant-backed noise.Meter", fn.Name())
			return
		}
	}
	pass.Reportf(sel.Pos(), "direct use of %s.%s: privacy-relevant randomness in internal/algo must flow through an accountant-backed noise.Meter", obj.Pkg().Path(), obj.Name())
}

// mathSynth is the set of math functions whose combination with a raw draw
// is the classic hand-rolled Laplace/exponential inversion.
var mathSynth = map[string]bool{"Log": true, "Log1p": true, "Exp": true, "Expm1": true}

// checkSynthesis flags math.Log/Exp whose argument contains a randomness
// draw: feeding a draw into a transcendental is noise synthesis.
func checkSynthesis(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "math" || !mathSynth[obj.Name()] {
		return
	}
	for _, arg := range call.Args {
		if containsRawDraw(pass.TypesInfo, arg) {
			pass.Reportf(call.Pos(), "hand-rolled noise synthesis: math.%s applied to an expression containing a randomness draw; use the noise package's metered primitives so the accountant sees the spend", obj.Name())
			return
		}
	}
}

// containsRawDraw reports whether the expression tree contains a call of a
// math/rand function or method.
func containsRawDraw(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && randPkg(obj.Pkg().Path()) {
			if _, isType := obj.(*types.TypeName); !isType {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
