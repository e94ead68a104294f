package core

import (
	"context"
	"fmt"
	"math"

	"dpbench/internal/algo"
	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// Trainer implements Rparam, the free-parameter learning procedure of
// Section 5.2: given training shapes that are NOT part of the evaluation
// (DPBench trains on synthetic power-law and normal distributions), it grid
// searches each candidate parameter vector at a range of signal levels
// (eps * scale products) and records the winner per level. The resulting
// Profile is a data-independent function (eps, scale, n) -> theta, so using
// it does not violate Principle 6.
type Trainer struct {
	// Candidates is the parameter grid to search.
	Candidates [][]float64
	// Make builds an algorithm instance from a parameter vector.
	Make func(params []float64) algo.Algorithm
	// Domain is the training domain size n.
	Domain int
	// Products is the grid of eps*scale signal levels to train at.
	Products []float64
	// Trials is the number of runs averaged per (candidate, shape, level).
	Trials int
	// Seed fixes the training randomness.
	Seed int64
	// Audit runs every training trial through the budget-ledger audit
	// (algo.ExecuteAudited), so a candidate parameterization with broken
	// budget arithmetic fails training instead of silently skewing the
	// profile.
	Audit bool
}

// Profile is a step function from the eps*scale product to the best
// parameter vector found during training.
type Profile struct {
	// Products are the trained signal levels in increasing order.
	Products []float64
	// Params[i] is the winning parameter vector at Products[i].
	Params [][]float64
}

// Lookup returns the parameter vector trained at the largest product not
// exceeding the given one (or the smallest level for weaker signals).
func (p *Profile) Lookup(product float64) []float64 {
	if len(p.Products) == 0 {
		return nil
	}
	best := 0
	for i, lvl := range p.Products {
		if lvl <= product {
			best = i
		}
	}
	return p.Params[best]
}

// TrainingShapes returns the synthetic training distributions of Section
// 6.4: a power-law shape and a (discretized, truncated) normal shape over
// domain n. They are deliberately not drawn from the evaluation datasets.
func TrainingShapes(n int) []*vec.Vector {
	pl := vec.New(n)
	for i := range pl.Data {
		pl.Data[i] = math.Pow(float64(i+1), -1.5)
	}
	normalizeVec(pl)
	nm := vec.New(n)
	mu, sigma := float64(n)/2, float64(n)/8
	for i := range nm.Data {
		z := (float64(i) - mu) / sigma
		nm.Data[i] = math.Exp(-z * z / 2)
	}
	normalizeVec(nm)
	return []*vec.Vector{pl, nm}
}

func normalizeVec(v *vec.Vector) {
	s := v.Scale()
	for i := range v.Data {
		v.Data[i] /= s
	}
}

// Train runs the grid search and returns the learned profile. Cancelling ctx
// stops the search between training cells and returns ctx.Err(). Training fixes
// eps = 0.1 and varies scale to hit each product level, which is justified
// for scale-epsilon exchangeable algorithms (Definition 4); SF, the one
// exception, empirically behaves exchangeably (Section 5.5).
func (t *Trainer) Train(ctx context.Context) (*Profile, error) {
	if len(t.Candidates) == 0 || t.Make == nil {
		return nil, fmt.Errorf("core: trainer needs candidates and a constructor")
	}
	n := t.Domain
	if n <= 0 {
		n = 1024
	}
	products := t.Products
	if len(products) == 0 {
		products = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7}
	}
	trials := t.Trials
	if trials <= 0 {
		trials = 3
	}
	const eps = 0.1
	shapes := TrainingShapes(n)
	w := workload.Prefix(n)
	sc := newEvalScratch(w)
	prof := &Profile{}
	for li, product := range products {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scale := int(math.Round(product / eps))
		if scale < 1 {
			scale = 1
		}
		bestIdx, bestErr := 0, math.Inf(1)
		for ci, cand := range t.Candidates {
			var total float64
			runs := 0
			for si, shape := range shapes {
				genRNG := newRNG(t.Seed + int64(li*1_000+si))
				counts := noise.Multinomial(genRNG, scale, shape.Data)
				x := vec.New(n)
				for i, c := range counts {
					x.Data[i] = float64(c)
				}
				trueAns, err := w.Evaluate(x)
				if err != nil {
					return nil, err
				}
				// One candidate instance and one plan serve every trial on
				// this training vector; each trial keeps its own RNG stream.
				a := t.Make(cand)
				plan, err := a.Plan(x, w, eps)
				if err != nil {
					return nil, err
				}
				est := sc.estBuf(n)
				for tr := 0; tr < trials; tr++ {
					runRNG := newRNG(t.Seed + int64(li)*99_991 + int64(ci)*31_337 + int64(si)*7_907 + int64(tr))
					if err := executeTrial(a, plan, eps, runRNG, est, t.Audit); err != nil {
						return nil, err
					}
					sc.ev.Reset(est)
					sc.ev.AnswerAll(sc.estAns)
					total += ScaledError(L2Loss(sc.estAns, trueAns), float64(scale), w.Size())
					runs++
				}
			}
			if avg := total / float64(runs); avg < bestErr {
				bestErr = avg
				bestIdx = ci
			}
		}
		prof.Products = append(prof.Products, product)
		prof.Params = append(prof.Params, t.Candidates[bestIdx])
	}
	return prof, nil
}

// TrainMWEM learns the round count T for MWEM* over the given signal levels
// and returns it as a T-profile function (Section 6.4: T between 1 and 200;
// the learned values range from 2 to 100 across the benchmark's scales).
func TrainMWEM(ctx context.Context, domain int, products []float64, trials int, seed int64) (func(product float64) int, error) {
	var candidates [][]float64
	for _, tv := range []float64{2, 5, 10, 20, 40, 70, 100} {
		candidates = append(candidates, []float64{tv})
	}
	tr := &Trainer{
		Candidates: candidates,
		Make: func(params []float64) algo.Algorithm {
			return &algo.MWEM{T: int(params[0]), UpdateSweeps: 2}
		},
		Domain:   domain,
		Products: products,
		Trials:   trials,
		Seed:     seed,
	}
	prof, err := tr.Train(ctx)
	if err != nil {
		return nil, err
	}
	return func(product float64) int {
		p := prof.Lookup(product)
		if len(p) == 0 {
			return 10
		}
		return int(p[0])
	}, nil
}

// TrainAHP learns (rho, eta) for AHP* over the given signal levels.
func TrainAHP(ctx context.Context, domain int, products []float64, trials int, seed int64) (func(product float64) (rho, eta float64), error) {
	var candidates [][]float64
	for _, rho := range []float64{0.15, 0.3, 0.5, 0.6} {
		for _, eta := range []float64{0.1, 0.2, 0.35, 0.5} {
			candidates = append(candidates, []float64{rho, eta})
		}
	}
	tr := &Trainer{
		Candidates: candidates,
		Make: func(params []float64) algo.Algorithm {
			return &algo.AHP{Rho: params[0], Eta: params[1]}
		},
		Domain:   domain,
		Products: products,
		Trials:   trials,
		Seed:     seed,
	}
	prof, err := tr.Train(ctx)
	if err != nil {
		return nil, err
	}
	return func(product float64) (float64, float64) {
		p := prof.Lookup(product)
		if len(p) < 2 {
			return 0.5, 0.35
		}
		return p[0], p[1]
	}, nil
}
