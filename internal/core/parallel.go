package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dpbench/internal/algo"
)

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

// RunParallel executes one experimental setting on at most workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0); one worker runs
// every cell inline) and returns per-algorithm results in the order of
// cfg.Algorithms. The run is sample-major: for each sample in turn it draws
// the data vector, builds the sample's plans concurrently, and fans the
// sample's (trial, algorithm) cells out, so only one sample's vector and
// plans are alive at a time. Every (sample, trial, algorithm) cell draws
// from its own deriveSeed stream and writes into the pre-sized slot
// results[i].Errors[s*trials+t], so neither the worker count nor the
// schedule can change a value, and algorithms do not perturb each other's
// randomness. Each worker owns a private scratch arena; the plans are shared
// read-only (plan Executes are concurrency-safe).
//
// The first error, or the cancellation of ctx, stops the dispatch of further
// cells (in-flight cells finish) and is returned. Cancellation cannot change
// any value a completed run reports.
func RunParallel(ctx context.Context, cfg Config, workers int) ([]AlgResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	nalgs := len(cfg.Algorithms)
	results := make([]AlgResult, nalgs)
	for i, a := range cfg.Algorithms {
		results[i] = AlgResult{Name: a.Name(), Errors: make([]float64, p.samples*p.trials)}
	}
	arenas := make([]*evalScratch, workers)
	for s := 0; s < p.samples; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x, trueAns, err := generateSample(cfg, s)
		if err != nil {
			return nil, err
		}
		plans := make([]algo.Plan, nalgs)
		err = ParallelForCtx(ctx, workers, nalgs, func(i int) error {
			pl, err := cfg.Algorithms[i].Plan(x, cfg.Workload, cfg.Eps)
			if err != nil {
				return fmt.Errorf("core: planning %s on %s: %w", cfg.Algorithms[i].Name(), cfg.Dataset.Name, err)
			}
			plans[i] = pl
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Cells run algorithm-major (c = i*trials + t), so the trials of a
		// slow mechanism (MWEM* at scale 1e7 takes several times any other)
		// start together on different workers instead of one queue-length
		// apart, where the last of them would run alone at the sample's end.
		err = parallelForWorkers(ctx, workers, nalgs*p.trials, func(worker, c int) error {
			i, t := c/p.trials, c%p.trials
			sc := arenas[worker]
			if sc == nil {
				sc = newEvalScratch(cfg.Workload)
				arenas[worker] = sc
			}
			e, err := runCell(cfg, p, plans[i], x, trueAns, s, t, i, sc)
			if err != nil {
				return err
			}
			results[i].Errors[s*p.trials+t] = e
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
