package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"

	"dpbench/internal/algo"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/stats"
	"dpbench/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Finding6 reproduces the parameter-sensitivity study of Section 7.3: AHP,
// DAWA and MWEM on MEDCOST at scale 1e5, measuring the best and worst error
// over parameter settings that were each optimal in some other scenario.
// The paper reports worst/best ratios up to ~2.5x (DAWA) and ~7.5x
// (MWEM, AHP).
func Finding6(o Options) (map[string]float64, error) {
	n := o.domain1D()
	d, err := dataset.ByName("MEDCOST")
	if err != nil {
		return nil, err
	}
	scale := int(1e5)
	w := workload.Prefix(n)

	variants := map[string][]algo.Algorithm{
		"MWEM": {
			&algo.MWEM{T: 2, UpdateSweeps: 2},
			&algo.MWEM{T: 10, UpdateSweeps: 2},
			&algo.MWEM{T: 40, UpdateSweeps: 2},
			&algo.MWEM{T: 100, UpdateSweeps: 2},
		},
		"AHP": {
			&algo.AHP{Rho: 0.15, Eta: 0.1},
			&algo.AHP{Rho: 0.3, Eta: 0.2},
			&algo.AHP{Rho: 0.5, Eta: 0.35},
			&algo.AHP{Rho: 0.6, Eta: 0.5},
		},
		"DAWA": {
			&algo.DAWA{Rho: 0.1, B: 2},
			&algo.DAWA{Rho: 0.25, B: 2},
			&algo.DAWA{Rho: 0.5, B: 2},
		},
	}
	ratios := map[string]float64{}
	fmt.Fprintf(o.Out, "\nFinding 6 — parameter sensitivity on MEDCOST at scale %d\n", scale)
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := core.Config{
			Dataset: d, Dims: []int{n}, Scale: scale, Eps: Eps,
			Workload: w, Algorithms: variants[name],
			DataSamples: o.samples(), Trials: o.trials(), Seed: o.Seed + 60, Audit: o.Audit,
		}
		results, err := core.RunParallel(o.ctx(), cfg, o.workers())
		if err != nil {
			return nil, err
		}
		best, worst := results[0].MeanError(), results[0].MeanError()
		for _, r := range results[1:] {
			if m := r.MeanError(); m < best {
				best = m
			} else if m > worst {
				worst = m
			}
		}
		ratios[name] = worst / best
		fmt.Fprintf(o.Out, "  %-6s best %.3g  worst %.3g  ratio %.2fx\n", name, best, worst, ratios[name])
	}
	return ratios, nil
}

// Finding7 reproduces the MWEM/MWEM* error-ratio table of Section 7.3: the
// ratio of static-T MWEM error to trained-T MWEM* error, averaged over
// datasets, per scale. The paper's row: 1.799, .951, 1.063, 5.166, 12.000,
// 27.875 for scales 1e3..1e8 — near parity at small scales, large gains at
// large scales.
func Finding7(o Options) (map[int]float64, error) {
	n := o.domain1D()
	w := workload.Prefix(n)
	scales := []int{1e3, 1e4, 1e5, 1e6}
	if !o.Quick {
		scales = []int{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	}
	mwem, _ := algo.New("MWEM")
	mwemStar, _ := algo.New("MWEM*")
	algos := []algo.Algorithm{mwem, mwemStar}
	out := map[int]float64{}
	fmt.Fprintf(o.Out, "\nFinding 7 — error ratio MWEM/MWEM* by scale (eps=%g)\n", Eps)
	for _, scale := range scales {
		var ratios []float64
		for _, d := range o.datasets1D() {
			cfg := core.Config{
				Dataset: d, Dims: []int{n}, Scale: scale, Eps: Eps,
				Workload: w, Algorithms: algos,
				DataSamples: o.samples(), Trials: o.trials(), Seed: o.Seed + int64(scale) + 70, Audit: o.Audit,
			}
			results, err := core.RunParallel(o.ctx(), cfg, o.workers())
			if err != nil {
				return nil, err
			}
			if s := results[1].MeanError(); s > 0 {
				ratios = append(ratios, results[0].MeanError()/s)
			}
		}
		out[scale] = stats.Mean(ratios)
		fmt.Fprintf(o.Out, "  scale %-10g ratio %6.3f\n", float64(scale), out[scale])
	}
	return out, nil
}

// Finding8 reproduces the risk-averse evaluation of Section 7.4: settings
// where the best algorithm by mean error differs from the best by 95th
// percentile. Flips print in (scale, dataset) order.
func Finding8(o Options) (int, error) {
	res, err := Fig1aData(o)
	if err != nil {
		return 0, err
	}
	flips := 0
	total := 0
	fmt.Fprintf(o.Out, "\nFinding 8 — mean-best vs p95-best flips (1D)\n")
	for _, scale := range o.scales1D() {
		perDataset := res.raw[scale]
		for _, ds := range slices.Sorted(maps.Keys(perDataset)) {
			results := perDataset[ds]
			total++
			mb := core.BestByMean(results)
			pb := core.BestByP95(results)
			if mb != pb {
				flips++
				fmt.Fprintf(o.Out, "  scale %-9g %-12s mean-best=%-9s p95-best=%s\n", float64(scale), ds, mb, pb)
			}
		}
	}
	fmt.Fprintf(o.Out, "  %d of %d settings flip winner under the risk-averse measure\n", flips, total)
	return flips, nil
}

// Finding9 reproduces the bias study of Section 7.4: bias share of total
// error at a large eps*scale signal for the algorithms the paper proves
// inconsistent (MWEM, PHP, UNIFORM) against consistent references.
func Finding9(o Options) (map[string]core.BiasVariance, error) {
	n := o.domain1D()
	d, err := dataset.ByName("TRACE")
	if err != nil {
		return nil, err
	}
	rng := newRand(o.Seed + 90)
	x, err := d.Generate(rng, 1e6, n)
	if err != nil {
		return nil, err
	}
	w := workload.Prefix(n)
	out := map[string]core.BiasVariance{}
	fmt.Fprintf(o.Out, "\nFinding 9 — bias share of error at scale 1e6, eps=%g\n", Eps)
	for _, name := range []string{"UNIFORM", "MWEM", "PHP", "IDENTITY", "HB", "DAWA"} {
		a, err := algo.New(name)
		if err != nil {
			return nil, err
		}
		bv, err := core.MeasureBias(a, x, w, Eps, o.trials()*4, o.Seed+91, o.Audit)
		if err != nil {
			return nil, err
		}
		out[name] = bv
		fmt.Fprintf(o.Out, "  %-9s bias^2 %.3g  variance %.3g  bias share %5.1f%%\n",
			name, bv.Bias2, bv.Variance, 100*bv.BiasShare())
	}
	return out, nil
}

// Finding10 reproduces the baseline comparison of Section 7.5: per scale,
// the algorithms whose dataset-averaged error is worse than IDENTITY and
// UNIFORM.
func Finding10(o Options) error {
	res, err := Fig1aData(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "\nFinding 10 — algorithms beaten by baselines (1D, dataset-averaged)\n")
	for _, scale := range o.scales1D() {
		// Collect per-dataset errors in sorted dataset order: stats.Mean
		// sums floats, so map order here would make the averages (and the
		// beaten-by sets near a tie) nondeterministic.
		perDataset := res.raw[scale]
		avg := map[string][]float64{}
		for _, name := range slices.Sorted(maps.Keys(perDataset)) {
			for _, r := range perDataset[name] {
				avg[r.Name] = append(avg[r.Name], r.MeanError())
			}
		}
		idErr := stats.Mean(avg["IDENTITY"])
		uniErr := stats.Mean(avg["UNIFORM"])
		var beatenByID, beatenByUni []string
		for name, errs := range avg {
			if name == "IDENTITY" || name == "UNIFORM" {
				continue
			}
			m := stats.Mean(errs)
			if m > idErr {
				beatenByID = append(beatenByID, name)
			}
			if m > uniErr {
				beatenByUni = append(beatenByUni, name)
			}
		}
		sort.Strings(beatenByID)
		sort.Strings(beatenByUni)
		fmt.Fprintf(o.Out, "  scale %-9g beaten by IDENTITY: %v\n", float64(scale), beatenByID)
		fmt.Fprintf(o.Out, "  scale %-9g beaten by UNIFORM:  %v\n", float64(scale), beatenByUni)
	}
	return nil
}

// Exchangeability runs Definition 4's empirical check over the roster
// (Section 5.5 / Appendix C: all algorithms but SF are exchangeable; SF
// empirically behaves so).
func Exchangeability(o Options) error {
	n := 256
	d, err := dataset.ByName("SEARCH")
	if err != nil {
		return err
	}
	shape, err := d.Shape(n)
	if err != nil {
		return err
	}
	w := workload.Prefix(n)
	fmt.Fprintf(o.Out, "\nScale-epsilon exchangeability (Definition 4): err(s,eps) vs err(10s,eps/10)\n")
	for _, name := range []string{"IDENTITY", "HB", "PRIVELET", "GREEDY-H", "H", "UNIFORM", "DAWA", "AHP", "PHP", "EFPA", "MWEM", "DPCUBE", "SF"} {
		a, err := algo.New(name)
		if err != nil {
			return err
		}
		res, err := core.CheckExchangeability(a, shape, w, 20_000, 0.4, 10, o.trials()*3, 1.0, o.Seed+95, o.Audit)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "  %-9s ratio %5.2f  (ok within tol: %v)\n", name, res.Ratio, res.WithinTolerance)
	}
	return nil
}

// Consistency runs Definition 5's empirical check over the roster and prints
// the residual error at the largest eps relative to the smallest (Table 1's
// "Consistent" column).
func Consistency(o Options) error {
	n := 128
	d, err := dataset.ByName("TRACE")
	if err != nil {
		return err
	}
	rng := newRand(o.Seed + 96)
	x, err := d.Generate(rng, 100_000, n)
	if err != nil {
		return err
	}
	w := workload.Prefix(n)
	sweep := []float64{0.01, 0.1, 1, 100, 10_000}
	fmt.Fprintf(o.Out, "\nConsistency (Definition 5): residual error at eps=1e4 vs eps=0.01\n")
	for _, name := range []string{"IDENTITY", "PRIVELET", "H", "HB", "GREEDY-H", "DAWA", "AHP", "DPCUBE", "EFPA", "SF", "UNIFORM", "MWEM", "PHP"} {
		a, err := algo.New(name)
		if err != nil {
			return err
		}
		res, err := core.CheckConsistency(a, x, w, sweep, o.trials(), 0.01, o.Seed+97, o.Audit)
		if err != nil {
			return err
		}
		verdict := "consistent"
		if !res.Decaying {
			verdict = "BIAS FLOOR"
		}
		fmt.Fprintf(o.Out, "  %-9s residual %8.2e  %s\n", name, res.ResidualAtMax, verdict)
	}
	return nil
}
