// Package tree provides the hierarchical-aggregation machinery shared by the
// tree-structured mechanisms in the benchmark: H, Hb, GreedyH, QuadTree,
// HybridTree, and the bucket hierarchies inside DAWA and SF. A tree covers
// the cells of a data vector; each node may receive a noisy measurement of
// its total count, and the weighted least-squares "consistency" inference of
// Hay et al. (PVLDB 2010) combines all measurements into minimum-variance
// cell estimates using two linear passes.
//
// Every hierarchy is a Flat: pre-order node arrays built in place by
// append-only recursions, so fixed shapes are cached and shared by all
// trials, and per-trial shapes are rebuilt into a reused arena.
package tree

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned cell rectangle [X0,X1) x [Y0,Y1) on an nx x ny
// grid stored row-major (flat index = y*nx + x).
type Rect struct{ X0, Y0, X1, Y1 int }

// levelLabels precomputes the ledger labels MeasureInto charges under, one
// per tree depth, so the metered hot path performs no string formatting.
var levelLabels = func() (out [64]string) {
	for i := range out {
		out[i] = fmt.Sprintf("level%d", i)
	}
	return
}()

// LevelLabel returns the ledger label for measurements at tree depth d.
// Composition plans cover all depths with the wildcard entry "level*".
func LevelLabel(d int) string {
	if d >= 0 && d < len(levelLabels) {
		return levelLabels[d]
	}
	return "level-deep"
}

// UniformLevelBudget splits eps evenly over h levels.
func UniformLevelBudget(eps float64, h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = eps / float64(h)
	}
	return out
}

// GeometricLevelBudget allocates budget proportional to 2^(depth/3), the
// allocation Cormode et al. recommend for spatial decompositions: deeper
// levels (smaller counts) receive more budget.
func GeometricLevelBudget(eps float64, h int) []float64 {
	weights := make([]float64, h)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(2, float64(i)/3)
		total += weights[i]
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = eps * weights[i] / total
	}
	return out
}

// unmeasuredVar stands in for infinite variance so precision arithmetic stays
// finite; it dwarfs any realistic measurement variance.
const unmeasuredVar = 1e30
