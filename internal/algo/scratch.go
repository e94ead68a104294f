package algo

import (
	"sync"

	"dpbench/internal/workload"
)

// scratchKey names one process-wide pool of per-trial scratch: the plan type
// (and layout) whose Execute uses it, plus every size its scratch constructor
// reads. All plans with the same key draw from the same pool, whatever their
// data or budget. A sweep builds thousands of short-lived plans; with a pool
// per plan, each dead plan's buffers would stay reachable until the runtime's
// pool cleanup ran, and the fewer collections a lean Execute triggers, the
// more of them pile up.
//
// Sharing is sound because every Execute writes each scratch value before it
// reads it, so nothing a previous user (of this plan or any other) left
// behind reaches an output. TestCrossPlanSharedPools checks this.
type scratchKey struct {
	mech  string
	w     *workload.Workload // MWEM only: its state evaluates this workload
	sizes [3]int
}

var scratchPools sync.Map // scratchKey -> *sync.Pool

// scratchPool returns the pool for key, creating it with newScratch on first
// use. newScratch may read only the sizes in key, never a plan: the pool
// outlives the plan that created it, and would otherwise pin its data.
func scratchPool(key scratchKey, newScratch func() any) *sync.Pool {
	if v, ok := scratchPools.Load(key); ok {
		return v.(*sync.Pool)
	}
	v, _ := scratchPools.LoadOrStore(key, &sync.Pool{New: newScratch})
	return v.(*sync.Pool)
}
