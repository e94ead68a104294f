// Package dpbench is a from-scratch Go reproduction of "Principled
// Evaluation of Differentially Private Algorithms using DPBench" (Hay,
// Machanavajjhala, Miklau, Chen, Zhang — SIGMOD 2016), promoted into an
// importable library and a servable system.
//
// # Public surface
//
// Three packages form the stable public API; everything under internal/ may
// change at any time:
//
//   - dpbench (this package): the facade — Dataset, Histogram, Workload,
//     Mechanism, Plan, Meter, Result, Config, the benchmark runners
//     (Run / RunParallel, both context-aware) and the free-parameter
//     trainers (TrainMWEM / TrainAHP).
//   - dpbench/release: the mechanism registry (the paper's 17 release
//     mechanisms by name), functional construction options, and the
//     Plan/Execute machinery for amortized repeated trials.
//   - dpbench/privacy: the budget accountant and metered noise source, with
//     sentinel errors (ErrBudgetExhausted, ErrCompositionViolation) that
//     every layer wraps with %w for errors.Is handling.
//
// The facade promotes the internal types by alias, so a public-API run is
// bit-identical to the same cell run through the internal packages (pinned
// by a golden test), and the exported surface of all three packages is
// locked by TestAPILock against testdata/api_lock.golden. The examples/
// programs are written exclusively against this surface.
//
// A minimal end-to-end release:
//
//	ds, _ := dpbench.OpenDataset("MEDCOST")
//	x, _ := ds.Generate(rand.New(rand.NewSource(1)), 50_000, 1024)
//	w := dpbench.Prefix(1024)
//	m, _ := release.New("DAWA")
//	est, _ := release.Run(m, x, w, 0.1, rand.New(rand.NewSource(7)))
//
// # The benchmark underneath
//
// internal/ holds the reproduction the facade exposes: the 17 mechanisms in
// internal/algo, the DPBench framework in internal/core, the experiment
// harness in internal/experiments, the HTTP query service in internal/serve,
// and the substrates (data vectors, noise primitives, transforms, trees,
// workloads, datasets, statistics) in their own packages. The cmd/dpbench
// binary regenerates every table and figure of the paper and runs the
// budget-metered query service (dpbench serve); the root-level benchmarks
// (bench_test.go) expose the same experiments as `go test -bench` targets.
//
// The experiment grid runs on a bounded worker pool with a hard determinism
// guarantee: every (sample, trial, mechanism) cell draws from its own
// SplitMix64-derived RNG stream and writes into a pre-sized,
// coordinate-indexed slot, so output is bit-identical for every worker
// count, including one worker, which runs every cell inline. Cancelling the
// context stops a grid between cells without changing any value a completed
// run reports.
//
// Mechanism execution is split into Plan and Execute: Plan prepares an
// executable release plan for one (data, workload, epsilon) cell — all
// deterministic structure building happens there, with no randomness and no
// privacy cost — and Execute runs one independent trial through a metered
// noise source. Run is exactly Plan followed by one Execute, so both entry
// points are bit-identical (a registry-wide property test enforces it), and
// every plan is safe for concurrent Execute — which is what lets the serve
// layer share one precompiled plan across all requests, and the runner
// share one plan per (sample, mechanism) across trials and workers.
//
// Noise sampling has one family: Laplace draws call math.Log and
// exponential-mechanism selections call math.Exp per score, and their exact
// stream is what every golden output, CLI diff and recorded figure pins. A
// faster sampler can return only as that same single family, with a proven
// floating-point privacy bound and regenerated goldens, never as a second
// option beside it.
//
// Privacy-budget enforcement is machine-checked end to end. Every mechanism
// draws all randomness through a privacy.Meter and declares a composition
// plan (the ledger labels it may emit, each composing sequentially or in
// parallel). In audit mode (Config.Audit, the CLI's -audit flag) every
// trial fails unless its ledger sums to exactly the trial's epsilon and
// stays inside the declared plan; audited output is bit-identical to
// unaudited output, and with audit off no ledger exists and the hot path
// stays allocation-free. The serve layer reuses the same accountant type
// for its per-API-key budgets, refusing (HTTP 429) any query that would
// overspend a key's epsilon. See README.md for the full walkthroughs.
package dpbench
