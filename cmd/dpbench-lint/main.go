// Command dpbench-lint runs the dpbench static-analysis suite: the six
// analyzers under internal/analysis that enforce the privacy-budget and
// determinism invariants at compile time (see internal/analysis/doc.go).
//
//	dpbench-lint [packages]       defaults to ./...
//
// It loads the packages' non-test files with go list and reports findings
// on stderr. Exit status: 0 clean, 1 operational error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"dpbench/internal/analysis"
	"dpbench/internal/analysis/allocfree"
	"dpbench/internal/analysis/determinism"
	"dpbench/internal/analysis/driver"
	"dpbench/internal/analysis/epsflow"
	"dpbench/internal/analysis/internalboundary"
	"dpbench/internal/analysis/load"
	"dpbench/internal/analysis/noisegate"
	"dpbench/internal/analysis/privtaint"
)

var analyzers = []*analysis.Analyzer{
	noisegate.Analyzer,
	determinism.Analyzer,
	internalboundary.Analyzer,
	privtaint.Analyzer,
	allocfree.Analyzer,
	epsflow.Analyzer,
}

func main() {
	flag.Usage = usage
	flag.Parse()
	os.Exit(lint(flag.Args()))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: dpbench-lint [packages]

Runs the dpbench invariant analyzers:
`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-17s %s\n", a.Name, a.Doc)
	}
}

// lint loads the given patterns (default ./...) with go list and runs every
// analyzer over every module package.
func lint(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrs {
			fmt.Fprintf(os.Stderr, "%s: %v\n", pkg.Meta.ImportPath, terr)
			exit = 1
		}
		if len(pkg.TypeErrs) > 0 {
			continue
		}
		findings, err := driver.Analyze(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			if exit == 0 {
				exit = 2
			}
		}
	}
	return exit
}
