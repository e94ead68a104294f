// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, just large enough to host dpbench's own
// static checkers (see doc.go for the invariants they enforce).
//
// The API deliberately mirrors the upstream package — Analyzer, Pass,
// Diagnostic, Reportf — so the analyzers under internal/analysis/... can be
// ported to the real go/analysis multichecker by swapping one import when a
// vendored golang.org/x/tools becomes available. The repo's build
// environment has no module network access and an empty module cache, so
// the framework itself (package loading, type checking, fixture tests) is
// built on the standard library alone: `go list -export -json` supplies the
// package graph and compiled export data, and go/types + go/importer
// type-check the target sources against it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check: a name, a documentation string
// stating the invariant it enforces, and a Run function applied once per
// type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph statement of the invariant.
	Doc string

	// Run applies the check to a single package. Findings are delivered
	// through pass.Report / pass.Reportf; the error return is for the
	// analyzer itself failing, not for findings.
	Run func(*Pass) error
}

// A Pass supplies an Analyzer with one type-checked package and a sink for
// its diagnostics. Analyzers must treat every field as read-only.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File    // non-test sources of the package, parsed with comments
	Pkg       *types.Package // the type-checked package
	TypesInfo *types.Info    // type facts for Files
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
