// Package experiments regenerates every table and figure of the DPBench
// paper's evaluation (Section 7). Each exported function corresponds to one
// artifact — Figures 1a/1b, 2a/2b/2c, Tables 3a/3b, and the finding-specific
// studies — and prints the same rows/series the paper reports. The Options
// struct trades grid size for runtime: Quick mode reproduces the qualitative
// shape of every result on a laptop in minutes, Full mode runs the paper's
// grid (hours).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"dpbench/internal/algo"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/stats"
	"dpbench/internal/workload"
)

// Options controls experiment size and output.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Quick trims domains, trial counts and algorithm rosters so every
	// experiment finishes in seconds to minutes while preserving orderings.
	Quick bool
	// Seed fixes all randomness.
	Seed int64
	// Workers bounds the worker pool that runs independent grid cells
	// (dataset x scale, and the sample/trial/algorithm cells within each)
	// concurrently. <= 0 means runtime.GOMAXPROCS(0). Results are
	// bit-identical for every worker count.
	Workers int
	// Audit runs every trial through the privacy-budget ledger audit: any
	// mechanism whose spends do not sum to exactly eps (or stray from its
	// declared composition plan) fails the experiment. Output values are
	// bit-identical with and without auditing.
	Audit bool
	// Domain1D, when positive, overrides the 1D domain size of every
	// experiment that runs a 1D grid (dpbench -n). It must divide
	// dataset.MaxDomain1D: the generator only coarsens its 4096-bin source
	// shapes. Million-bin trials are measured by BenchmarkLargeDomain.
	Domain1D int
	// Ctx, when non-nil, cancels a long experiment grid early: in-flight
	// cells finish, no new cells start, and the context's error propagates
	// out of the experiment. Nil means context.Background().
	Ctx context.Context
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) samples() int {
	if o.Quick {
		return 2
	}
	return 5
}

func (o Options) trials() int {
	if o.Quick {
		return 3
	}
	return 10
}

func (o Options) domain1D() int {
	if o.Domain1D > 0 {
		return o.Domain1D
	}
	if o.Quick {
		return 512
	}
	return 4096
}

func (o Options) domain2D() int {
	if o.Quick {
		return 32
	}
	return 128
}

func (o Options) queries2D() int {
	if o.Quick {
		return 200
	}
	return 2000
}

func (o Options) scales1D() []int {
	return []int{1e3, 1e5, 1e7}
}

func (o Options) scales2D() []int {
	if o.Quick {
		return []int{1e4, 1e6, 1e7}
	}
	return []int{1e4, 1e6, 1e8}
}

func (o Options) datasets1D() []dataset.Dataset {
	all := dataset.Registry1D()
	if !o.Quick {
		return all
	}
	// A shape-diverse six: sparse, dense, spiky, smooth.
	keep := map[string]bool{"ADULT": true, "HEPPH": true, "TRACE": true, "BIDS-ALL": true, "MD-SAL": true, "PATENT": true}
	var out []dataset.Dataset
	for _, d := range all {
		if keep[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

func (o Options) datasets2D() []dataset.Dataset {
	all := dataset.Registry2D()
	if !o.Quick {
		return all
	}
	keep := map[string]bool{"GOWALLA": true, "ADULT-2D": true, "SF-CABS-S": true, "BJ-CABS-E": true, "STROKE": true}
	var out []dataset.Dataset
	for _, d := range all {
		if keep[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// Eps is the privacy budget all scale-sweep figures fix (the paper uses 0.1
// throughout and varies scale, justified by scale-epsilon exchangeability).
const Eps = 0.1

// algorithms1D is the roster of Figure 1a, in the paper's column order.
func algorithms1D() []algo.Algorithm {
	return roster("IDENTITY", "HB", "MWEM*", "DAWA", "PHP", "MWEM", "EFPA", "DPCUBE", "AHP*", "SF", "UNIFORM")
}

// algorithms2D is the roster of Figure 1b.
func algorithms2D() []algo.Algorithm {
	return roster("IDENTITY", "HB", "AGRID", "MWEM", "MWEM*", "DAWA", "QUADTREE", "UGRID", "DPCUBE", "AHP", "UNIFORM")
}

func roster(names ...string) []algo.Algorithm {
	out := make([]algo.Algorithm, 0, len(names))
	for _, n := range names {
		a, err := algo.New(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// CellResult is the aggregate for one (algorithm, dataset, scale) cell.
type CellResult struct {
	Algorithm string
	Dataset   string
	Scale     int
	Mean      float64
	P95       float64
}

// sweep runs algorithms over datasets x scales for one dimensionality and
// returns every cell, plus the raw per-setting results for t-tests.
type sweepResult struct {
	cells []CellResult
	// raw[scale][dataset] holds full AlgResults for competitiveness tests.
	raw map[int]map[string][]core.AlgResult
}

func (o Options) sweep(algos []algo.Algorithm, datasets []dataset.Dataset, dims []int, scales []int, w *workload.Workload) (*sweepResult, error) {
	// Every (scale, dataset) grid cell is an independent experiment, so the
	// whole grid fans out over one worker pool; each cell additionally fans
	// its (sample, trial, algorithm) cells out via RunParallel. The worker
	// budget is split across the two levels — grid * per-cell <= workers —
	// so -workers stays a real bound: a wide grid parallelizes across cells,
	// a one-cell grid (e.g. Fig2c's per-domain sweeps) inside the cell.
	// per[c] is the pre-sized slot for cell c, so collection order never
	// affects output.
	workers := o.workers()
	nds := len(datasets)
	per := make([][]core.AlgResult, len(scales)*nds)
	grid := workers
	if grid > len(per) {
		grid = len(per)
	}
	err := core.ParallelForCtx(o.ctx(), grid, len(per), func(c int) error {
		scale, d := scales[c/nds], datasets[c%nds]
		cfg := core.Config{
			Dataset:     d,
			Dims:        dims,
			Scale:       scale,
			Eps:         Eps,
			Workload:    w,
			Algorithms:  algos,
			DataSamples: o.samples(),
			Trials:      o.trials(),
			Seed:        o.Seed + int64(scale),
			Audit:       o.Audit,
		}
		results, err := core.RunParallel(o.ctx(), cfg, workers/grid)
		if err != nil {
			return err
		}
		per[c] = results
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Assemble in the serial (scale-major, dataset-minor) order.
	out := &sweepResult{raw: map[int]map[string][]core.AlgResult{}}
	for si, scale := range scales {
		out.raw[scale] = map[string][]core.AlgResult{}
		for di, d := range datasets {
			results := per[si*nds+di]
			out.raw[scale][d.Name] = results
			for _, r := range results {
				out.cells = append(out.cells, CellResult{
					Algorithm: r.Name, Dataset: d.Name, Scale: scale,
					Mean: r.MeanError(), P95: r.P95Error(),
				})
			}
		}
	}
	return out, nil
}

// printScaleFigure renders a Figure-1-style panel set: per scale, one row per
// algorithm with the mean over datasets (the white diamond) and the min/max
// across datasets (the spread of black dots), in log10 scaled error.
func printScaleFigure(out io.Writer, title string, algos []algo.Algorithm, scales []int, cells []CellResult) {
	fmt.Fprintf(out, "\n%s\n", title)
	fmt.Fprintf(out, "%-10s", "ALGORITHM")
	for _, s := range scales {
		fmt.Fprintf(out, "  %22s", fmt.Sprintf("scale=%g (log10 err)", float64(s)))
	}
	fmt.Fprintln(out)
	for _, a := range algos {
		fmt.Fprintf(out, "%-10s", a.Name())
		for _, s := range scales {
			var vals []float64
			for _, c := range cells {
				if c.Algorithm == a.Name() && c.Scale == s {
					vals = append(vals, c.Mean)
				}
			}
			mean := stats.Mean(vals)
			lo, hi := minMax(vals)
			fmt.Fprintf(out, "  %6.2f [%6.2f,%6.2f]", log10(mean), log10(lo), log10(hi))
		}
		fmt.Fprintln(out)
	}
}

func log10(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log10(x)
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Fig1a reproduces Figure 1a: 1D error versus scale at domain 4096 on the
// Prefix workload, every 1D algorithm, every 1D dataset.
func Fig1a(o Options) (*sweepResult, error) {
	n := o.domain1D()
	res, err := o.sweep(algorithms1D(), o.datasets1D(), []int{n}, o.scales1D(), workload.Prefix(n))
	if err != nil {
		return nil, err
	}
	printScaleFigure(o.Out, fmt.Sprintf("Figure 1a — 1D, domain=%d, workload=Prefix, eps=%g", n, Eps),
		algorithms1D(), o.scales1D(), res.cells)
	return res, nil
}

// Fig1b reproduces Figure 1b: 2D error versus scale on random range queries.
func Fig1b(o Options) (*sweepResult, error) {
	side := o.domain2D()
	w := workload.RandomRange2D(side, side, o.queries2D(), newRand(o.Seed+1))
	res, err := o.sweep(algorithms2D(), o.datasets2D(), []int{side, side}, o.scales2D(), w)
	if err != nil {
		return nil, err
	}
	printScaleFigure(o.Out, fmt.Sprintf("Figure 1b — 2D, domain=%dx%d, workload=%d random ranges, eps=%g",
		side, side, o.queries2D(), Eps), algorithms2D(), o.scales2D(), res.cells)
	return res, nil
}

// Fig2a reproduces Figure 2a: 1D error by dataset shape at the smallest
// scale, for the baselines plus the competitive data-dependent algorithms.
func Fig2a(o Options) error {
	n := o.domain1D()
	algos := roster("UNIFORM", "DAWA", "EFPA", "HB", "MWEM", "MWEM*", "PHP", "IDENTITY")
	scale := int(1e3)
	res, err := o.sweep(algos, o.datasets1D(), []int{n}, []int{scale}, workload.Prefix(n))
	if err != nil {
		return err
	}
	printShapeFigure(o.Out, fmt.Sprintf("Figure 2a — 1D error by shape (scale=%d, domain=%d)", scale, n), algos, res.cells)
	return nil
}

// Fig2b reproduces Figure 2b: 2D error by dataset shape at scale 1e4.
func Fig2b(o Options) error {
	side := o.domain2D()
	algos := roster("UNIFORM", "AGRID", "DAWA", "HB", "IDENTITY")
	w := workload.RandomRange2D(side, side, o.queries2D(), newRand(o.Seed+2))
	scale := int(1e4)
	res, err := o.sweep(algos, o.datasets2D(), []int{side, side}, []int{scale}, w)
	if err != nil {
		return err
	}
	printShapeFigure(o.Out, fmt.Sprintf("Figure 2b — 2D error by shape (scale=%d, domain=%dx%d)", scale, side, side), algos, res.cells)
	return nil
}

func printShapeFigure(out io.Writer, title string, algos []algo.Algorithm, cells []CellResult) {
	fmt.Fprintf(out, "\n%s\n", title)
	datasets := map[string]bool{}
	for _, c := range cells {
		datasets[c.Dataset] = true
	}
	names := make([]string, 0, len(datasets))
	for d := range datasets {
		names = append(names, d)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s", "DATASET")
	for _, a := range algos {
		fmt.Fprintf(out, "  %9s", a.Name())
	}
	fmt.Fprintln(out)
	for _, d := range names {
		fmt.Fprintf(out, "%-12s", d)
		for _, a := range algos {
			for _, c := range cells {
				if c.Dataset == d && c.Algorithm == a.Name() {
					fmt.Fprintf(out, "  %9.2f", log10(c.Mean))
					break
				}
			}
		}
		fmt.Fprintln(out)
	}
}

// Fig2c reproduces Figure 2c: 2D error versus domain size for two shapes at
// two scales, for IDENTITY, Hb, AGrid and DAWA.
func Fig2c(o Options) error {
	algos := roster("IDENTITY", "HB", "AGRID", "DAWA")
	sides := []int{32, 64, 128}
	if !o.Quick {
		sides = []int{32, 64, 128, 256}
	}
	scales := []int{1e4, 1e6}
	dsNames := []string{"ADULT-2D", "BJ-CABS-E"}
	fmt.Fprintf(o.Out, "\nFigure 2c — 2D error vs domain size (eps=%g)\n", Eps)
	for _, dn := range dsNames {
		d, err := dataset.ByName(dn)
		if err != nil {
			return err
		}
		for _, scale := range scales {
			fmt.Fprintf(o.Out, "%s scale=%g:\n", dn, float64(scale))
			fmt.Fprintf(o.Out, "  %-10s", "ALGORITHM")
			for _, side := range sides {
				fmt.Fprintf(o.Out, "  %9s", fmt.Sprintf("%dx%d", side, side))
			}
			fmt.Fprintln(o.Out)
			rows := map[string][]float64{}
			for _, side := range sides {
				w := workload.RandomRange2D(side, side, o.queries2D(), newRand(o.Seed+3))
				res, err := o.sweep(algos, []dataset.Dataset{d}, []int{side, side}, []int{scale}, w)
				if err != nil {
					return err
				}
				for _, c := range res.cells {
					rows[c.Algorithm] = append(rows[c.Algorithm], c.Mean)
				}
			}
			for _, a := range algos {
				fmt.Fprintf(o.Out, "  %-10s", a.Name())
				for _, v := range rows[a.Name()] {
					fmt.Fprintf(o.Out, "  %9.2f", log10(v))
				}
				fmt.Fprintln(o.Out)
			}
		}
	}
	return nil
}

// Table3 reproduces Tables 3a (1D) and 3b (2D): for each scale, the number
// of datasets on which each algorithm is competitive under the t-test
// standard of Section 5.3.
func Table3(o Options, twoD bool) (map[int]map[string]int, error) {
	var res *sweepResult
	var err error
	var title string
	if twoD {
		res, err = Fig1bData(o)
		title = fmt.Sprintf("Table 3b — datasets where competitive (2D, domain=%dx%d)", o.domain2D(), o.domain2D())
	} else {
		res, err = Fig1aData(o)
		title = fmt.Sprintf("Table 3a — datasets where competitive (1D, domain=%d)", o.domain1D())
	}
	if err != nil {
		return nil, err
	}
	counts := map[int]map[string]int{}
	for scale, perDataset := range res.raw {
		counts[scale] = map[string]int{}
		for _, results := range perDataset {
			for _, name := range core.CompetitiveSet(results, 0.05) {
				counts[scale][name]++
			}
		}
	}
	fmt.Fprintf(o.Out, "\n%s\n", title)
	scales := make([]int, 0, len(counts))
	for s := range counts {
		scales = append(scales, s)
	}
	sort.Ints(scales)
	algos := map[string]bool{}
	for _, m := range counts {
		for a := range m {
			algos[a] = true
		}
	}
	names := make([]string, 0, len(algos))
	for a := range algos {
		names = append(names, a)
	}
	sort.Strings(names)
	fmt.Fprintf(o.Out, "%-10s", "ALGORITHM")
	for _, s := range scales {
		fmt.Fprintf(o.Out, "  %8s", fmt.Sprintf("%g", float64(s)))
	}
	fmt.Fprintln(o.Out)
	for _, a := range names {
		fmt.Fprintf(o.Out, "%-10s", a)
		for _, s := range scales {
			if c := counts[s][a]; c > 0 {
				fmt.Fprintf(o.Out, "  %8d", c)
			} else {
				fmt.Fprintf(o.Out, "  %8s", "")
			}
		}
		fmt.Fprintln(o.Out)
	}
	return counts, nil
}

// Fig1aData runs the Figure 1a sweep without printing the figure (used by
// Table 3a and the regret computation).
func Fig1aData(o Options) (*sweepResult, error) {
	n := o.domain1D()
	return o.sweep(algorithms1D(), o.datasets1D(), []int{n}, o.scales1D(), workload.Prefix(n))
}

// Fig1bData runs the Figure 1b sweep without printing the figure.
func Fig1bData(o Options) (*sweepResult, error) {
	side := o.domain2D()
	w := workload.RandomRange2D(side, side, o.queries2D(), newRand(o.Seed+1))
	return o.sweep(algorithms2D(), o.datasets2D(), []int{side, side}, o.scales2D(), w)
}

// Regret reproduces the Section 7.2 regret measure: the geometric mean, over
// every (dataset, scale) setting, of each algorithm's error relative to the
// per-setting oracle. The paper reports DAWA 1.32 (1D) and 1.73 (2D).
func Regret(o Options, twoD bool) (map[string]float64, error) {
	var res *sweepResult
	var err error
	var algos []algo.Algorithm
	if twoD {
		res, err = Fig1bData(o)
		algos = algorithms2D()
	} else {
		res, err = Fig1aData(o)
		algos = algorithms1D()
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name()
	}
	// Iterate settings in sorted (scale, dataset) order: regret is a
	// geometric mean, and float products are order-sensitive at the bit
	// level, so map order here would leak into the printed table.
	scales := make([]int, 0, len(res.raw))
	for scale := range res.raw {
		scales = append(scales, scale)
	}
	sort.Ints(scales)
	var settings [][]float64
	for _, scale := range scales {
		perDataset := res.raw[scale]
		datasets := make([]string, 0, len(perDataset))
		for name := range perDataset {
			datasets = append(datasets, name)
		}
		sort.Strings(datasets)
		for _, name := range datasets {
			results := perDataset[name]
			row := make([]float64, len(results))
			for i, r := range results {
				row[i] = r.MeanError()
			}
			settings = append(settings, row)
		}
	}
	reg := core.RegretTable(names, settings)
	dim := "1D"
	if twoD {
		dim = "2D"
	}
	fmt.Fprintf(o.Out, "\nRegret (%s, Section 7.2 — paper: DAWA 1.32 on 1D, 1.73 on 2D)\n", dim)
	ordered := append([]string(nil), names...)
	sort.Slice(ordered, func(i, j int) bool { return reg[ordered[i]] < reg[ordered[j]] })
	for _, nm := range ordered {
		fmt.Fprintf(o.Out, "  %-10s %6.2f\n", nm, reg[nm])
	}
	return reg, nil
}
