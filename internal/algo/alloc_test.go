//go:build !race

package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// allocBounds lists the mechanisms whose Execute may allocate in steady
// state, with the most allocations allowed per call and the reason. Every
// other registered mechanism, in every dimensionality it supports, must
// make none.
var allocBounds = map[string]struct {
	max float64
	why string
}{
	"AHP/1d":        {2, "sort.Slice boxes its less closure and builds a swapper"},
	"AHP/2d":        {2, "sort.Slice boxes its less closure and builds a swapper"},
	"AHP*/1d":       {2, "sort.Slice boxes its less closure and builds a swapper"},
	"AHP*/2d":       {2, "sort.Slice boxes its less closure and builds a swapper"},
	"DAWA/1d":       {2, "levelBudgetFromWeights returns the stage-two level budgets"},
	"DAWA/2d":       {2, "levelBudgetFromWeights returns the stage-two level budgets"},
	"HYBRIDTREE/2d": {2, "tree.GeometricLevelBudget returns the per-level budgets"},
}

// TestPlanExecuteAllocs bounds the steady-state allocations of one Execute
// through a prepared plan, for every registered mechanism in 1D (256 cells,
// Prefix) and 2D (64x64, random rectangles), plus DPCube on the sweep's
// 128x128 grid. The meter is built once, outside the measured function.
// The file is left out of -race builds: there sync.Pool drops a random share
// of the items put back, so a pooled steady state allocates by design.
func TestPlanExecuteAllocs(t *testing.T) {
	type shape struct {
		dims []int
		only string // run only this mechanism
	}
	shapes := []shape{{dims: []int{256}}, {dims: []int{64, 64}}, {dims: []int{128, 128}, only: "DPCUBE"}}
	for _, name := range Names() {
		for _, sh := range shapes {
			a, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			k := len(sh.dims)
			if !a.Supports(k) || (sh.only != "" && sh.only != name) {
				continue
			}
			var x *vec.Vector
			var w *workload.Workload
			if k == 1 {
				x, w = planVec1D(t, 3, sh.dims[0]), workload.Prefix(sh.dims[0])
			} else {
				x = planVec2D(t, 3, sh.dims[0])
				w = workload.RandomRange2D(sh.dims[1], sh.dims[0], 200, rand.New(rand.NewSource(4)))
			}
			p, err := a.Plan(x, w, 0.5)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sh.dims, err)
			}
			m := noise.NewMeter(0.5, rand.New(rand.NewSource(5)))
			out := make([]float64, x.N())
			// Warm the pools first: the rebuildable trees of SF, DAWA and
			// HybridTree and DPCube's leaf list grow to the largest shape
			// they have seen.
			for i := 0; i < 10; i++ {
				if err := p.Execute(m, out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := p.Execute(m, out); err != nil {
					t.Fatal(err)
				}
			})
			bound, ok := allocBounds[fmt.Sprintf("%s/%dd", name, k)]
			if !ok {
				bound.why = "pooled scratch covers every buffer"
			}
			if allocs > bound.max {
				t.Errorf("%s %v: %v allocations per Execute, want at most %v (%s)", name, sh.dims, allocs, bound.max, bound.why)
			}
		}
	}
}
