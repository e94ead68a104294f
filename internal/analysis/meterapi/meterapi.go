// Package meterapi tells the analyzers which calls are methods of
// dpbench/internal/noise's Meter. Which of those methods charge under a
// ledger label, and how, is epsflow's spendOps table alone.
package meterapi

import (
	"go/ast"
	"go/types"
)

// PkgPath is the import path of the metered-noise package.
const PkgPath = "dpbench/internal/noise"

// MeterMethod reports whether call invokes a method on noise.Meter and, if
// so, the method name.
func MeterMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !isMeter(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

// isMeter reports whether t is noise.Meter or *noise.Meter.
func isMeter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == PkgPath && obj.Name() == "Meter"
}
