package epsflow

import (
	"path/filepath"
	"testing"

	"dpbench/internal/analysis/analysistest"
)

// TestEpsflow drives the analyzer over the budget-sum fixtures: an exact-sum
// pass, an over-spend, an under-spend on an early-return path, a
// branch-asymmetric spend, an open loop closed by //dp:spends, and a wrong
// //dp:spends annotation being rejected.
func TestEpsflow(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"), "dpbench/internal/algo")
}

// TestLabels drives the CompositionPlan check: labels and kinds of root-meter
// charges, sub-meter closes, tree measurements and //dp:spends functions,
// label families and forwarding, and the //lint:allow escape hatch.
func TestLabels(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "labels"), "dpbench/internal/algo")
}

// TestOpenPlan pins the conservative path: a mechanism whose plan is built
// dynamically cannot be checked statically, so it gets the sum check only
// and its labels are not flagged.
func TestOpenPlan(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "openplan"), "dpbench/internal/algo")
}

// TestSubMeters drives the close rule: sub-meters left open on some path,
// and every closing shape that must stay clean.
func TestSubMeters(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "subs"), "dpbench/internal/algo")
}
