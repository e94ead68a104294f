package core

import (
	"fmt"
	"math"
	"math/rand"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/stats"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Config describes one experimental setting: a (dataset, domain, scale,
// epsilon) cell of the benchmark grid, following Section 6.1's protocol of
// drawing several data vectors from the generator and running each algorithm
// several times on each vector.
type Config struct {
	// Dataset is the source shape.
	Dataset dataset.Dataset
	// Dims is the domain, e.g. []int{4096} or []int{128, 128}.
	Dims []int
	// Scale is the number of tuples the generator draws.
	Scale int
	// Eps is the privacy budget.
	Eps float64
	// Workload is the query set; the loss is computed over its answers.
	Workload *workload.Workload
	// Algorithms are the mechanisms to compare.
	Algorithms []algo.Algorithm
	// DataSamples is the number of vectors drawn from the generator
	// (paper: 5). Defaults to 3.
	DataSamples int
	// Trials is the number of algorithm executions per vector (paper: 10).
	// Defaults to 3.
	Trials int
	// Seed makes the experiment reproducible.
	Seed int64
	// Loss defaults to L2Loss.
	Loss LossFunc
	// Audit, when true, executes every trial through a ledger-backed noise
	// meter and fails the run unless the mechanism's recorded spends sum to
	// exactly Eps (within 1e-9) and match its declared composition plan.
	// Results are bit-identical to an unaudited run — the meter wraps the
	// noise stream without reordering it.
	Audit bool
}

// AlgResult holds every scaled-error observation for one algorithm in one
// setting (DataSamples * Trials values), plus the aggregates DPBench
// reports.
type AlgResult struct {
	Name   string
	Errors []float64
}

// MeanError returns the mean scaled error (the risk-neutral measure).
func (r AlgResult) MeanError() float64 { return stats.Mean(r.Errors) }

// P95Error returns the 95th-percentile scaled error (the risk-averse
// measure of Principle 8).
func (r AlgResult) P95Error() float64 { return stats.Percentile(r.Errors, 95) }

// newRNG builds a deterministic RNG whose stream identity is the full 64-bit
// seed (noise.NewRand's SplitMix64 source).
func newRNG(seed int64) *rand.Rand { return noise.NewRand(uint64(seed)) }

// runPlan is a Config with defaults applied.
type runPlan struct {
	samples, trials int
	loss            LossFunc
	q               int
}

// plan validates the config and resolves the defaulted fields.
func (cfg *Config) plan() (runPlan, error) {
	if cfg.Workload == nil {
		return runPlan{}, fmt.Errorf("core: config has no workload")
	}
	if len(cfg.Algorithms) == 0 {
		return runPlan{}, fmt.Errorf("core: config has no algorithms")
	}
	if cfg.Scale <= 0 {
		return runPlan{}, fmt.Errorf("core: non-positive scale %d", cfg.Scale)
	}
	p := runPlan{samples: cfg.DataSamples, trials: cfg.Trials, loss: cfg.Loss, q: cfg.Workload.Size()}
	if p.samples <= 0 {
		p.samples = 3
	}
	if p.trials <= 0 {
		p.trials = 3
	}
	if p.loss == nil {
		p.loss = L2Loss
	}
	return p, nil
}

// evalScratch holds the per-worker trial buffers: a reusable workload
// Evaluator, the answer vector the loss is computed over, and the estimate
// buffer mechanism plans execute into. One scratch serves every cell a
// worker executes, so the per-trial hot path of the runner performs no
// workload-evaluation or estimate allocations.
type evalScratch struct {
	ev     *workload.Evaluator
	estAns []float64
	est    []float64
}

func newEvalScratch(w *workload.Workload) *evalScratch {
	return &evalScratch{ev: workload.NewEvaluator(w), estAns: make([]float64, w.Size())}
}

// estBuf returns the scratch's estimate buffer at length n, growing it on
// first use (the domain size is fixed within one Config).
func (sc *evalScratch) estBuf(n int) []float64 {
	if cap(sc.est) < n {
		sc.est = make([]float64, n)
	}
	return sc.est[:n]
}

// generateSample draws sample s's data vector from the generator on its
// dedicated RNG stream and evaluates the workload's true answers.
func generateSample(cfg Config, s int) (*vec.Vector, []float64, error) {
	genRNG := newRNG(generatorSeed(cfg.Seed, s))
	x, err := cfg.Dataset.Generate(genRNG, cfg.Scale, cfg.Dims...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating %s: %w", cfg.Dataset.Name, err)
	}
	trueAns, err := cfg.Workload.Evaluate(x)
	if err != nil {
		return nil, nil, err
	}
	return x, trueAns, nil
}

// executeTrial is the one trial step of every loop in this package: it runs
// plan once into est on a fresh meter over rng. With audit set the trial
// runs through algo.ExecuteAudited, which fails it unless a's budget ledger
// sums to exactly eps and matches its declared composition plan; otherwise
// the meter is unaudited. The meter wraps the noise stream without
// reordering it, so both ways write the identical estimate.
func executeTrial(a algo.Algorithm, plan algo.Plan, eps float64, rng *rand.Rand, est []float64, audit bool) error {
	if audit {
		return algo.ExecuteAudited(a, plan, eps, rng, est)
	}
	return plan.Execute(noise.NewMeter(eps, rng), est)
}

// runCell executes one (sample, trial, algorithm) cell on its own RNG stream
// through the sample's prepared plan and returns the scaled error. sc
// provides the reusable evaluation and estimate buffers, and cfg.Audit
// selects the audited trial step. Output is bit-identical to running the
// algorithm directly: Run is Plan + Execute by construction.
func runCell(cfg Config, p runPlan, plan algo.Plan, x *vec.Vector, trueAns []float64, s, t, i int, sc *evalScratch) (float64, error) {
	a := cfg.Algorithms[i]
	runRNG := newRNG(deriveSeed(cfg.Seed, s, t, i))
	est := sc.estBuf(x.N())
	if err := executeTrial(a, plan, cfg.Eps, runRNG, est, cfg.Audit); err != nil {
		return 0, fmt.Errorf("core: %s on %s: %w", a.Name(), cfg.Dataset.Name, err)
	}
	sc.ev.Reset(est)
	sc.ev.AnswerAll(sc.estAns)
	return ScaledError(p.loss(sc.estAns, trueAns), float64(cfg.Scale), p.q), nil
}

// CompetitiveSet returns the names of algorithms that are competitive for
// state-of-the-art performance in this setting (Section 5.3): the algorithm
// with the lowest mean error, plus every algorithm whose mean-error
// difference from it is not statistically significant under an unpaired
// Welch t-test at the Bonferroni-corrected level alpha/(nalgs-1).
func CompetitiveSet(results []AlgResult, alpha float64) []string {
	if len(results) == 0 {
		return nil
	}
	best := 0
	for i := range results {
		if results[i].MeanError() < results[best].MeanError() {
			best = i
		}
	}
	corrected := stats.Bonferroni(alpha, len(results)-1)
	out := []string{results[best].Name}
	for i := range results {
		if i == best {
			continue
		}
		tt := stats.WelchTTest(results[i].Errors, results[best].Errors)
		if tt.P > corrected {
			out = append(out, results[i].Name)
		}
	}
	return out
}

// BestByP95 returns the name of the algorithm with the lowest 95th-percentile
// error, the risk-averse winner of Finding 8.
func BestByP95(results []AlgResult) string {
	if len(results) == 0 {
		return ""
	}
	var sc stats.Scratch
	best, bestP95 := 0, math.Inf(1)
	for i := range results {
		if p95 := sc.Percentile(results[i].Errors, 95); p95 < bestP95 {
			best, bestP95 = i, p95
		}
	}
	return results[best].Name
}

// BestByMean returns the name of the algorithm with the lowest mean error.
func BestByMean(results []AlgResult) string {
	if len(results) == 0 {
		return ""
	}
	best := 0
	for i := range results {
		if results[i].MeanError() < results[best].MeanError() {
			best = i
		}
	}
	return results[best].Name
}

// RegretTable computes, for each algorithm, the geometric-mean ratio of its
// mean error to the per-setting oracle minimum, over a grid of settings
// (Section 7.2: DAWA achieves 1.32 on 1D, 1.73 on 2D). settings[i][j] is the
// mean error of algorithm j on setting i; algorithm order must be fixed
// across settings.
func RegretTable(names []string, settings [][]float64) map[string]float64 {
	out := make(map[string]float64, len(names))
	if len(settings) == 0 {
		return out
	}
	oracle := make([]float64, len(settings))
	for i, row := range settings {
		m := row[0]
		for _, v := range row[1:] {
			if v < m {
				m = v
			}
		}
		oracle[i] = m
	}
	for j, name := range names {
		errs := make([]float64, len(settings))
		for i, row := range settings {
			errs[i] = row[j]
		}
		out[name] = stats.Regret(errs, oracle)
	}
	return out
}
