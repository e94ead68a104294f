package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dpbench/internal/algo"
	"dpbench/internal/vec"
)

// vecWithAnswers pairs one generated data sample with its true workload
// answers.
type vecWithAnswers struct {
	x       *vec.Vector
	trueAns []float64
}

// ParallelForCtx runs fn(0), ..., fn(n-1) on at most workers goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 runs inline). The
// first error stops dispatch of not-yet-started indices — in-flight calls
// finish — and is returned after all started calls complete; once ctx is
// done, no new indices are dispatched either and ctx.Err() is returned.
// Callers get deterministic output by writing fn's result into a slot
// indexed by i, so scheduling order never matters.
func ParallelForCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return parallelForWorkers(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// parallelForWorkers is ParallelForCtx with the executing worker's index (in
// [0, workers)) passed to fn, so callers can hand each worker a private
// scratch arena instead of contending on a shared pool. The inline
// single-worker path always reports worker 0.
func parallelForWorkers(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	tasks := make(chan int)
	done := make(chan struct{})
	var (
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(done)
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for i := range tasks {
				if err := fn(worker, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	go func() {
		defer close(tasks)
		for i := 0; i < n; i++ {
			// Checked before the select: when both a worker and ctx.Done()
			// are ready, select picks randomly, so a pre-cancelled context
			// could otherwise still dispatch work.
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			select {
			case tasks <- i:
			case <-done:
				return
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
		}
	}()
	wg.Wait()
	return firstErr
}

// RunParallel executes the same experimental setting as Run, fanning the
// independent (sample, trial, algorithm) cells out over a bounded worker
// pool, and returns bit-identical results: every cell draws from the same
// deriveSeed RNG stream as the serial path and writes into a pre-sized slot
// indexed by (sample, trial), so neither scheduling nor collection order can
// affect the output. workers <= 0 falls back to cfg.Parallelism, then to
// runtime.GOMAXPROCS(0); workers == 1 delegates to the serial Run outright,
// paying zero pool or synchronization overhead. Each worker owns a private
// scratch arena (workload evaluator, answer and estimate buffers), so cells
// never contend on shared pools; the per-sample plans are built once and
// shared read-only by every worker (plan Executes are concurrency-safe).
// The first cell error cancels the remaining work and is propagated, and a
// cancelled ctx stops dispatch of not-yet-started cells the same way.
func RunParallel(ctx context.Context, cfg Config, workers int) ([]AlgResult, error) {
	if workers <= 0 {
		workers = cfg.Parallelism
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return Run(ctx, cfg)
	}
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}

	// Phase 1: draw every data sample concurrently; each sample has its own
	// generator stream, so sample s's vector is independent of who builds it.
	xs := make([]*vecWithAnswers, p.samples)
	err = ParallelForCtx(ctx, workers, p.samples, func(s int) error {
		x, trueAns, err := generateSample(cfg, s)
		if err != nil {
			return err
		}
		xs[s] = &vecWithAnswers{x: x, trueAns: trueAns}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 1.5: prepare every (sample, algorithm) plan concurrently. Plan
	// construction is deterministic, so build order cannot affect output.
	nalgs := len(cfg.Algorithms)
	plans := make([][]algo.Plan, p.samples)
	for s := range plans {
		plans[s] = make([]algo.Plan, nalgs)
	}
	err = ParallelForCtx(ctx, workers, p.samples*nalgs, func(c int) error {
		s, i := c/nalgs, c%nalgs
		pl, err := cfg.Algorithms[i].Plan(xs[s].x, cfg.Workload, cfg.Eps)
		if err != nil {
			return fmt.Errorf("core: planning %s on %s: %w", cfg.Algorithms[i].Name(), cfg.Dataset.Name, err)
		}
		plans[s][i] = pl
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: fan out all cells, algorithm-major: cell c decodes to
	// algorithm i = c / (samples*trials), then sample s and trial t in
	// the serial loop's order. A mechanism's cells thus sit next to each
	// other in the queue, so the trials of a slow mechanism (MWEM* at
	// scale 1e7 takes several times any other) start together on
	// different workers instead of one queue-length apart, where the
	// last of them would run alone at the end of the cell. The schedule
	// moves only when work starts: every cell keeps its own RNG stream
	// and its result lands in results[i].Errors[s*trials+t]. Each worker
	// keeps a private scratch arena for the whole phase — no pool
	// traffic, no contention; the scratch never influences results, only
	// where intermediates are stored.
	results := newResults(cfg, p)
	arenas := make([]*evalScratch, workers)
	perAlg := p.samples * p.trials
	err = parallelForWorkers(ctx, workers, nalgs*perAlg, func(worker, c int) error {
		i := c / perAlg
		s := (c % perAlg) / p.trials
		t := c % p.trials
		sc := arenas[worker]
		if sc == nil {
			sc = newEvalScratch(cfg.Workload)
			arenas[worker] = sc
		}
		e, err := runCell(cfg, p, plans[s][i], xs[s].x, xs[s].trueAns, s, t, i, sc)
		if err != nil {
			return err
		}
		results[i].Errors[s*p.trials+t] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
