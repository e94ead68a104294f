// Package core implements the task-independent half of the DPBench
// evaluation framework of Section 5 of the paper, which every benchmark
// shares: the experiment runner over the data generator G, the
// error-measurement standards (scaled average per-query error, mean and
// 95th-percentile aggregation, competitive sets via Welch t-tests with
// Bonferroni correction), the error-interpretation standards (baselines and
// regret), the algorithm repair functions (free-parameter training and
// side-information removal), and checkers for the two theoretical
// properties the paper formalizes (scale-epsilon exchangeability and
// consistency). A Config names one setting of the task-specific components
// (workload, dataset, mechanisms, loss); the experiments package assembles
// the paper's 1D and 2D grids from the registries. The runner, the trainer
// and the checkers execute every trial through one step, audited or not;
// the runner is RunParallel, which runs inline at one worker.
package core

import (
	"math"

	"dpbench/internal/algo"
	"dpbench/internal/vec"
)

// LossFunc measures the distance between the true workload answers y and the
// mechanism's answers yhat.
type LossFunc func(yhat, y []float64) float64

// L2Loss is the loss the paper uses throughout: the L2 norm of the error
// vector.
func L2Loss(yhat, y []float64) float64 { return vec.L2Distance(yhat, y) }

// ScaledError computes the scaled average per-query error of Definition 3:
// loss divided by (scale * number of queries). Scaled error is interpretable
// as a population fraction and is the quantity all DPBench findings are
// stated in.
func ScaledError(loss float64, scale float64, q int) float64 {
	if scale <= 0 || q <= 0 {
		return math.Inf(1)
	}
	return loss / (scale * float64(q))
}

// RepairSideInfo applies the Rside repair function (Section 5.2) to every
// algorithm that consumes public side information, directing it to spend the
// fraction rho of its budget on a private estimate instead. The paper's
// experiments use rhoTotal = 0.05.
func RepairSideInfo(algos []algo.Algorithm, rho float64) {
	for _, a := range algos {
		if s, ok := a.(algo.SideInfoUser); ok {
			s.SetScaleEstimator(rho)
		}
	}
}
