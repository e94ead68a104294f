package dpbench

import (
	"context"
	"fmt"

	"dpbench/internal/core"
)

// Config describes one experimental setting of the benchmark: a (dataset,
// domain, scale, epsilon) cell, the workload the loss is measured over, and
// the mechanisms under comparison. It is the public form of the DPBench
// evaluation protocol (Section 6.1 of the paper): DataSamples data vectors
// are drawn from the generator and every mechanism runs Trials times on each.
type Config struct {
	// Dataset is the source shape (see OpenDataset).
	Dataset Dataset
	// Dims is the domain, e.g. []int{4096} or []int{128, 128}.
	Dims []int
	// Scale is the number of tuples the generator draws.
	Scale int
	// Epsilon is the privacy budget of every trial.
	Epsilon float64
	// Workload is the query set; the loss is computed over its answers.
	Workload *Workload
	// Mechanisms are the release mechanisms to compare (release.New).
	Mechanisms []Mechanism
	// DataSamples is the number of vectors drawn from the generator
	// (paper: 5). Defaults to 3.
	DataSamples int
	// Trials is the number of mechanism executions per vector (paper: 10).
	// Defaults to 3.
	Trials int
	// Seed makes the experiment reproducible: results are a pure function
	// of (Config, Seed), identical for every worker count.
	Seed int64
	// Audit executes every trial through a ledger-backed noise meter and
	// fails the run unless each mechanism's recorded spends sum to exactly
	// Epsilon and match its declared composition plan. Results are
	// bit-identical to an unaudited run.
	Audit bool
}

// internal converts the facade config to the runner's form. Mechanism
// aliases the internal algorithm interface, so the mechanism roster passes
// through without conversion.
func (c Config) internal() core.Config {
	return core.Config{
		Dataset:     c.Dataset.d,
		Dims:        c.Dims,
		Scale:       c.Scale,
		Eps:         c.Epsilon,
		Workload:    c.Workload,
		Algorithms:  c.Mechanisms,
		DataSamples: c.DataSamples,
		Trials:      c.Trials,
		Seed:        c.Seed,
		Audit:       c.Audit,
	}
}

// Result holds every scaled-error observation for one mechanism in one
// setting (DataSamples * Trials values) plus the aggregates DPBench reports:
// Name, Errors, MeanError (risk-neutral) and P95Error (risk-averse).
type Result = core.AlgResult

// Run executes one experimental setting on the calling goroutine and
// returns per-mechanism results in roster order. Every (sample, trial,
// mechanism) cell draws from an independent deterministic RNG stream
// derived from Config.Seed, so results are reproducible and mechanisms do
// not perturb each other's randomness. Cancelling ctx stops the run between
// cells with ctx.Err(). Run is RunParallel with one worker.
func Run(ctx context.Context, cfg Config) ([]Result, error) {
	return core.RunParallel(ctx, cfg.internal(), 1)
}

// RunParallel is Run on at most workers goroutines (workers <= 0 means
// GOMAXPROCS). Results are bit-identical to Run for every worker count.
func RunParallel(ctx context.Context, cfg Config, workers int) ([]Result, error) {
	return core.RunParallel(ctx, cfg.internal(), workers)
}

// RepairSideInfo applies the paper's Rside repair (Principle 7) to every
// mechanism in the roster that consumes public side information, directing
// it to spend the fraction rho of its budget on a private estimate instead.
// The paper's experiments use rho = 0.05. Mechanisms without side
// information are left untouched; to fail loudly on a mechanism that cannot
// be repaired, use release.WithSideInfoRepair at construction instead.
func RepairSideInfo(ms []Mechanism, rho float64) { core.RepairSideInfo(ms, rho) }

// ScaledError converts a loss into the scaled average per-query error of
// Definition 3: loss / (scale * queries), interpretable as a population
// fraction. All DPBench findings are stated in this quantity.
func ScaledError(loss, scale float64, queries int) float64 {
	return core.ScaledError(loss, scale, queries)
}

// L2Loss is the loss the paper uses throughout: the L2 norm of the error
// vector between the mechanism's workload answers and the true answers.
func L2Loss(estimated, truth []float64) float64 { return core.L2Loss(estimated, truth) }

// CompetitiveSet returns the names of mechanisms competitive for
// state-of-the-art performance in this setting (Section 5.3): the lowest
// mean error plus every mechanism not statistically distinguishable from it
// under a Welch t-test at the Bonferroni-corrected level alpha/(n-1).
func CompetitiveSet(results []Result, alpha float64) []string {
	return core.CompetitiveSet(results, alpha)
}

// BestByMean returns the name of the mechanism with the lowest mean error.
func BestByMean(results []Result) string { return core.BestByMean(results) }

// BestByP95 returns the name of the mechanism with the lowest
// 95th-percentile error, the risk-averse winner of Finding 8.
func BestByP95(results []Result) string { return core.BestByP95(results) }

// TrainMWEM learns MWEM's round count T the DPBench way (Rparam, Section
// 5.2): a grid search on synthetic power-law and normal shapes — never on
// evaluation data — at each eps*scale signal level. The returned profile is
// data-independent, so using it does not violate Principle 6; plug it into a
// mechanism with release.WithMWEMProfile. Cancelling ctx stops training.
func TrainMWEM(ctx context.Context, domain int, signals []float64, trials int, seed int64) (func(signal float64) int, error) {
	if domain <= 0 {
		return nil, fmt.Errorf("dpbench: training domain must be positive, got %d", domain)
	}
	return core.TrainMWEM(ctx, domain, signals, trials, seed)
}

// TrainAHP learns AHP's (rho, eta) clustering parameters over the given
// signal levels, analogous to TrainMWEM; plug the result into
// release.WithAHPParams per signal level.
func TrainAHP(ctx context.Context, domain int, signals []float64, trials int, seed int64) (func(signal float64) (rho, eta float64), error) {
	if domain <= 0 {
		return nil, fmt.Errorf("dpbench: training domain must be positive, got %d", domain)
	}
	return core.TrainAHP(ctx, domain, signals, trials, seed)
}
