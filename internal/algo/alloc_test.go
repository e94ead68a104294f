//go:build !race

package algo

import (
	"math/rand"
	"testing"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// TestTreePlanExecuteAllocs bounds the steady-state allocations of one
// Execute through a prepared tree-mechanism plan. The meter is built once,
// outside the measured function. DAWA's and HybridTree's per-trial level
// budgets (levelBudgetFromWeights, GeometricLevelBudget) are the two
// allocations they are allowed; everything else comes from pooled scratch.
// The file is left out of -race builds: there sync.Pool drops a random share
// of the items put back, so a pooled steady state allocates by design.
func TestTreePlanExecuteAllocs(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		max  float64
	}{
		{"H", []int{256}, 0},
		{"HB", []int{256}, 0},
		{"HB", []int{64, 64}, 0},
		{"GREEDY-H", []int{256}, 0},
		{"GREEDY-H", []int{64, 64}, 0},
		{"QUADTREE", []int{64, 64}, 0},
		{"SF", []int{256}, 0},
		{"DAWA", []int{256}, 2},
		{"DAWA", []int{64, 64}, 2},
		{"HYBRIDTREE", []int{64, 64}, 2},
	}
	for _, c := range cases {
		a, err := New(c.name)
		if err != nil {
			t.Fatal(err)
		}
		var x *vec.Vector
		var w *workload.Workload
		if len(c.dims) == 1 {
			x, w = planVec1D(t, 3, c.dims[0]), workload.Prefix(c.dims[0])
		} else {
			x = planVec2D(t, 3, c.dims[0])
		}
		p, err := a.Plan(x, w, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		m := noise.NewMeter(0.5, rand.New(rand.NewSource(5)))
		out := make([]float64, x.N())
		// Warm the pools first: the rebuildable trees of SF, DAWA and
		// HybridTree grow to the largest shape they have seen.
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
		if allocs > c.max {
			t.Errorf("%s %v: %v allocations per Execute, want at most %v", c.name, c.dims, allocs, c.max)
		}
	}
}
