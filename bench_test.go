package dpbench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/experiments"
	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// benchOptions trims the experiment grids to benchmark-friendly sizes while
// exercising exactly the code paths of the paper's artifacts. Run the CLI
// (cmd/dpbench) for presentation-quality grids.
func benchOptions() experiments.Options {
	return experiments.Options{Out: io.Discard, Quick: true, Seed: 20160626}
}

// BenchmarkFig1a regenerates Figure 1a (1D error vs scale, Prefix workload).
func BenchmarkFig1a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1a(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1b regenerates Figure 1b (2D error vs scale, random ranges).
func BenchmarkFig1b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1b(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a regenerates Figure 2a (1D error by shape at small scale).
func BenchmarkFig2a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2a(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2b regenerates Figure 2b (2D error by shape).
func BenchmarkFig2b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2b(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2c regenerates Figure 2c (2D error vs domain size).
func BenchmarkFig2c(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2c(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3a regenerates Table 3a (1D competitive counts).
func BenchmarkTable3a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(opt, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3b regenerates Table 3b (2D competitive counts).
func BenchmarkTable3b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(opt, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinding6 regenerates the parameter-sensitivity study.
func BenchmarkFinding6(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Finding6(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinding7 regenerates the MWEM/MWEM* ratio table.
func BenchmarkFinding7(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Finding7(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinding8 regenerates the mean-vs-p95 winner-flip study.
func BenchmarkFinding8(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Finding8(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinding9 regenerates the bias/variance decomposition.
func BenchmarkFinding9(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Finding9(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinding10 regenerates the baseline comparison.
func BenchmarkFinding10(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Finding10(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegret regenerates the Section 7.2 regret measure (1D).
func BenchmarkRegret(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Regret(opt, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeability runs the Definition 4 check across the roster.
func BenchmarkExchangeability(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Exchangeability(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsistency runs the Definition 5 sweep across the roster.
func BenchmarkConsistency(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Consistency(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment runner at several worker counts (the determinism guarantee
// makes these directly comparable: all produce bit-identical results) ---

func runnerBenchConfig(b *testing.B) core.Config {
	d, err := dataset.ByName("MEDCOST")
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string) algo.Algorithm {
		a, err := algo.New(name)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	return core.Config{
		Dataset:     d,
		Dims:        []int{1024},
		Scale:       100_000,
		Eps:         0.1,
		Workload:    workload.Prefix(1024),
		Algorithms:  []algo.Algorithm{mk("HB"), mk("DAWA"), mk("MWEM"), mk("EFPA")},
		DataSamples: 2,
		Trials:      3,
		Seed:        20160626,
	}
}

// BenchmarkRunParallel measures one experimental setting at several worker
// counts; workers=1 runs every cell inline and is the serial baseline.
func BenchmarkRunParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := runnerBenchConfig(b)
			for i := 0; i < b.N; i++ {
				if _, err := core.RunParallel(context.Background(), cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepSerial runs the Figure 1a grid sweep on a single worker.
func BenchmarkSweepSerial(b *testing.B) {
	opt := benchOptions()
	opt.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1aData(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel4 runs the identical grid sweep with -workers=4; the
// acceptance target is >1.5x over BenchmarkSweepSerial on a multi-core box.
func BenchmarkSweepParallel4(b *testing.B) {
	opt := benchOptions()
	opt.Workers = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1aData(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-algorithm microbenchmarks (runtime of one release at the paper's
// full 1D domain) ---

func benchAlgorithm1D(b *testing.B, name string) {
	d, err := dataset.ByName("SEARCH")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x, err := d.Generate(rng, 100_000, 4096)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Prefix(4096)
	a, err := algo.New(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(x, w, 0.1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoIdentity(b *testing.B) { benchAlgorithm1D(b, "IDENTITY") }
func BenchmarkAlgoHB(b *testing.B)       { benchAlgorithm1D(b, "HB") }
func BenchmarkAlgoPrivelet(b *testing.B) { benchAlgorithm1D(b, "PRIVELET") }
func BenchmarkAlgoDAWA(b *testing.B)     { benchAlgorithm1D(b, "DAWA") }
func BenchmarkAlgoMWEM(b *testing.B)     { benchAlgorithm1D(b, "MWEM") }
func BenchmarkAlgoEFPA(b *testing.B)     { benchAlgorithm1D(b, "EFPA") }
func BenchmarkAlgoSF(b *testing.B)       { benchAlgorithm1D(b, "SF") }
func BenchmarkAlgoAHP(b *testing.B)      { benchAlgorithm1D(b, "AHP") }
func BenchmarkAlgoPHP(b *testing.B)      { benchAlgorithm1D(b, "PHP") }

// --- Plan/Execute amortization benchmarks ---

// BenchmarkPlanExecute measures ONE trial through a prepared plan (structure
// building amortized away), next to BenchmarkAlgo* which pays Plan+Execute
// per Run. The gap is what the experiment runner saves on every trial after
// the first. The 2d/ set runs the tree mechanisms on the sweep's 128x128 grid;
// the 2d-1e7/ set runs the mechanisms of the sweep's slowest cells, and the
// 2d-1e5/ and 2d-1e3/ sets run MWEM* at the sweep's other two scales.
func BenchmarkPlanExecute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := func(name string, scale int, dims ...int) *vec.Vector {
		d, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		x, err := d.Generate(rng, scale, dims...)
		if err != nil {
			b.Fatal(err)
		}
		return x
	}
	type benchSet struct {
		prefix string
		x      *vec.Vector
		w      *workload.Workload
		names  []string
	}
	sets := []benchSet{
		{"", gen("SEARCH", 1e5, 4096), workload.Prefix(4096),
			[]string{"IDENTITY", "HB", "PRIVELET", "DAWA", "MWEM", "EFPA", "SF", "AHP", "PHP"}},
		{"2d/", gen("ADULT-2D", 1e5, 128, 128), nil,
			[]string{"HYBRIDTREE", "QUADTREE", "HB", "GREEDY-H"}},
		// The sweep's slowest 2D cell: scale 1e7 and its 2000 rectangles.
		{"2d-1e7/", gen("ADULT-2D", 1e7, 128, 128), workload.RandomRange2D(128, 128, 2000, rng),
			[]string{"DPCUBE", "MWEM*", "AGRID"}},
	}
	// MWEM* sets its round count from eps*scale: T = 70, 20 and 5 at the
	// sweep's scales 1e7, 1e5 and 1e3, here over the same rectangles.
	rects := sets[len(sets)-1].w
	sets = append(sets,
		benchSet{"2d-1e5/", gen("ADULT-2D", 1e5, 128, 128), rects, []string{"MWEM*"}},
		benchSet{"2d-1e3/", gen("ADULT-2D", 1e3, 128, 128), rects, []string{"MWEM*"}})
	for _, set := range sets {
		for _, name := range set.names {
			x, w := set.x, set.w
			b.Run(set.prefix+name, func(b *testing.B) {
				a, err := algo.New(name)
				if err != nil {
					b.Fatal(err)
				}
				p, err := a.Plan(x, w, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				out := make([]float64, x.N())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Execute(noise.NewMeter(0.1, rng), out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLargeDomain executes prepared plans for the data-independent
// mechanisms on domains up to 2^20 bins — the scaling regime the Plan split
// opens up: the million-node structures are built once (and cached
// process-wide), so each trial costs only its noise draws and inference.
func BenchmarkLargeDomain(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i % 23)
		}
		x, err := vec.FromData(data, n)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"IDENTITY", "H", "HB", "PRIVELET"} {
			name := name
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				a, err := algo.New(name)
				if err != nil {
					b.Fatal(err)
				}
				p, err := a.Plan(x, nil, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(2))
				out := make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Execute(noise.NewMeter(0.1, rng), out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationConsistency compares hierarchical estimation with and
// without the least-squares consistency pass: it reports the mean squared
// error of the root (total-count) query under both estimators.
func BenchmarkAblationConsistency(b *testing.B) {
	const n, eps = 1024, 0.1
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 11)
	}
	var trueTotal float64
	for _, v := range data {
		trueTotal += v
	}
	rng := rand.New(rand.NewSource(9))
	var withSE, withoutSE float64
	trials := 0
	flat, err := tree.SharedInterval(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	// Without consistency: all budget on the leaves, none on the hierarchy
	// (an identity-equivalent answer).
	leavesOnly := make([]float64, flat.Height())
	leavesOnly[len(leavesOnly)-1] = eps
	rootSE := func(budget []float64) float64 {
		sc := flat.Acquire()
		flat.ComputeSums(data, sc)
		flat.MeasureInto(noise.NewMeter(eps, rng), sc, budget)
		est := make([]float64, n)
		flat.InferInto(sc, est)
		flat.Release(sc)
		var total float64
		for _, v := range est {
			total += v
		}
		return (total - trueTotal) * (total - trueTotal)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withSE += rootSE(tree.UniformLevelBudget(eps, flat.Height()))
		withoutSE += rootSE(leavesOnly)
		trials++
	}
	if trials > 0 {
		b.ReportMetric(withSE/float64(trials), "mse-with-consistency")
		b.ReportMetric(withoutSE/float64(trials), "mse-leaves-only")
	}
}

// BenchmarkAblationDawaPartition compares DAWA's dyadic-restricted partition
// DP against the unrestricted O(n^2) variant on a small domain.
func BenchmarkAblationDawaPartition(b *testing.B) {
	d1, _ := algo.New("DAWA")
	d2 := &algo.DAWA{Rho: 0.25, B: 2, NoDyadicRestriction: true}
	ds, _ := dataset.ByName("TRACE")
	rng := rand.New(rand.NewSource(3))
	x, err := ds.Generate(rng, 10_000, 256)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Prefix(256)
	b.Run("dyadic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d1.Run(x, w, 0.1, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrestricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d2.Run(x, w, 0.1, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBudgetSplit sweeps the two-stage budget split rho for
// DAWA and reports the scaled error at each setting.
func BenchmarkAblationBudgetSplit(b *testing.B) {
	ds, _ := dataset.ByName("MEDCOST")
	rng := rand.New(rand.NewSource(5))
	x, err := ds.Generate(rng, 100_000, 512)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Prefix(512)
	trueAns, err := w.Evaluate(x)
	if err != nil {
		b.Fatal(err)
	}
	for _, rho := range []float64{0.1, 0.25, 0.5, 0.75} {
		rho := rho
		b.Run(ratioName(rho), func(b *testing.B) {
			a := &algo.DAWA{Rho: rho, B: 2}
			var errSum float64
			for i := 0; i < b.N; i++ {
				est, err := a.Run(x, w, 0.1, rng)
				if err != nil {
					b.Fatal(err)
				}
				estAns := w.EvaluateFlat(est)
				errSum += core.ScaledError(core.L2Loss(estAns, trueAns), x.Scale(), w.Size())
			}
			b.ReportMetric(errSum/float64(b.N)*1e6, "scaled-err-x1e6")
		})
	}
}

func ratioName(rho float64) string {
	switch rho {
	case 0.1:
		return "rho=0.10"
	case 0.25:
		return "rho=0.25"
	case 0.5:
		return "rho=0.50"
	default:
		return "rho=0.75"
	}
}

// BenchmarkAblationHilbert compares Hilbert against row-major linearization
// for DAWA on clustered 2D data, reporting scaled error: the Hilbert curve's
// locality should yield cheaper partitions.
func BenchmarkAblationHilbert(b *testing.B) {
	ds, _ := dataset.ByName("GOWALLA")
	rng := rand.New(rand.NewSource(11))
	x, err := ds.Generate(rng, 100_000, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.RandomRange2D(32, 32, 200, rand.New(rand.NewSource(12)))
	trueAns, err := w.Evaluate(x)
	if err != nil {
		b.Fatal(err)
	}
	dawa, _ := algo.New("DAWA")
	b.Run("hilbert", func(b *testing.B) {
		var errSum float64
		for i := 0; i < b.N; i++ {
			est, err := dawa.Run(x, w, 0.1, rng)
			if err != nil {
				b.Fatal(err)
			}
			estAns := w.EvaluateFlat(est)
			errSum += core.ScaledError(core.L2Loss(estAns, trueAns), x.Scale(), w.Size())
		}
		b.ReportMetric(errSum/float64(b.N)*1e6, "scaled-err-x1e6")
	})
	b.Run("rowmajor", func(b *testing.B) {
		inner := &algo.DAWA{Rho: 0.25, B: 2}
		var errSum float64
		for i := 0; i < b.N; i++ {
			// Row-major: flatten as 1D and run DAWA directly.
			flat, _ := vec.FromData(append([]float64(nil), x.Data...), x.N())
			est, err := inner.Run(flat, nil, 0.1, rng)
			if err != nil {
				b.Fatal(err)
			}
			estAns := w.EvaluateFlat(est)
			errSum += core.ScaledError(core.L2Loss(estAns, trueAns), x.Scale(), w.Size())
		}
		b.ReportMetric(errSum/float64(b.N)*1e6, "scaled-err-x1e6")
	})
}

// --- Hot-path microbenchmarks for the allocation-free kernels ---

// BenchmarkEvaluatorPrefix4096 measures one Reset+AnswerAll cycle of the
// reusable workload Evaluator at the paper's full 1D domain; the fast path
// must report zero allocs/op.
func BenchmarkEvaluatorPrefix4096(b *testing.B) {
	w := workload.Prefix(4096)
	ev := workload.NewEvaluator(w)
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i % 17)
	}
	out := make([]float64, w.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(data)
		ev.AnswerAll(out)
	}
}

// BenchmarkEvaluatorLegacyEvaluateFlat is the allocating per-call baseline
// the Evaluator replaces; compare with BenchmarkEvaluatorPrefix4096.
func BenchmarkEvaluatorLegacyEvaluateFlat(b *testing.B) {
	w := workload.Prefix(4096)
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i % 17)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.EvaluateFlat(data)
	}
}

// BenchmarkEvaluator2D measures the summed-area-table path on the paper's 2D
// workload shape (2000 random rectangles over 128x128).
func BenchmarkEvaluator2D(b *testing.B) {
	w := workload.RandomRange2D(128, 128, 2000, rand.New(rand.NewSource(21)))
	ev := workload.NewEvaluator(w)
	data := make([]float64, 128*128)
	for i := range data {
		data[i] = float64(i % 13)
	}
	out := make([]float64, w.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset(data)
		ev.AnswerAll(out)
	}
}

// BenchmarkGeneratorG measures the data generator's multinomial sampling at
// the paper's largest scale.
func BenchmarkGeneratorG(b *testing.B) {
	d, _ := dataset.ByName("INCOME")
	rng := rand.New(rand.NewSource(13))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Generate(rng, 100_000_000, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHilbertLinearize measures the 2D linearization at 256x256.
func BenchmarkHilbertLinearize(b *testing.B) {
	data := make([]float64, 256*256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := transform.HilbertLinearize(data, 256); err != nil {
			b.Fatal(err)
		}
	}
}
