package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dpbench/internal/algo"
	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

func auditConfig(t *testing.T, audit bool) Config {
	t.Helper()
	d, err := dataset.ByName("ADULT")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dataset:     d,
		Dims:        []int{128},
		Scale:       10_000,
		Eps:         0.5,
		Workload:    workload.Prefix(128),
		Algorithms:  algo.All(1),
		DataSamples: 2,
		Trials:      2,
		Seed:        77,
		Audit:       audit,
	}
}

// TestRunAuditModeMatchesPlainRun asserts the audit's core contract at the
// runner level: with Audit on, every trial passes the ledger check AND every
// scaled error is bit-identical to the unaudited run — across the full 1D
// roster, at one worker and at four.
func TestRunAuditModeMatchesPlainRun(t *testing.T) {
	plain, err := RunParallel(context.Background(), auditConfig(t, false), 1)
	if err != nil {
		t.Fatal(err)
	}
	audited, err := RunParallel(context.Background(), auditConfig(t, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(context.Background(), auditConfig(t, true), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for j := range plain[i].Errors {
			if plain[i].Errors[j] != audited[i].Errors[j] {
				t.Fatalf("%s trial %d: audited %v != plain %v", plain[i].Name, j, audited[i].Errors[j], plain[i].Errors[j])
			}
			if plain[i].Errors[j] != par[i].Errors[j] {
				t.Fatalf("%s trial %d: parallel audited %v != plain %v", plain[i].Name, j, par[i].Errors[j], plain[i].Errors[j])
			}
		}
	}
}

// TestTrainerAuditMode runs a miniature training grid search with the
// ledger audit on every candidate trial.
func TestTrainerAuditMode(t *testing.T) {
	tr := &Trainer{
		Candidates: [][]float64{{0.3}, {0.5}},
		Make: func(params []float64) algo.Algorithm {
			return &algo.AHP{Rho: params[0], Eta: 0.35}
		},
		Domain:   64,
		Products: []float64{1e3},
		Trials:   1,
		Seed:     5,
		Audit:    true,
	}
	if _, err := tr.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// overSpender draws every cell twice at the full budget under one label,
// charged as a parallel scope: the ledger records eps once, but both draws
// read the same cells, so each trial really spends 2*eps. Its plan declares
// the label sequential, as two measurements of the same data must be, so
// the audit rejects the parallel charges. Unaudited, nothing notices.
type overSpender struct{}

type overSpendPlan struct {
	x   []float64
	eps float64
}

func (overSpender) Name() string        { return "OVERSPEND" }
func (overSpender) Supports(k int) bool { return k == 1 }
func (overSpender) DataDependent() bool { return false }

func (overSpender) Run(*vec.Vector, *workload.Workload, float64, *rand.Rand) ([]float64, error) {
	return nil, errors.New("overSpender: the checks use Plan only")
}

func (overSpender) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (algo.Plan, error) {
	return overSpendPlan{x: x.Data, eps: eps}, nil
}

func (overSpender) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "cells", Kind: noise.Sequential}}
}

func (p overSpendPlan) Execute(m *noise.Meter, out []float64) error {
	for i, v := range p.x {
		a := m.LaplacePar("cells", 1/p.eps, p.eps)
		b := m.LaplacePar("cells", 1/p.eps, p.eps)
		out[i] = v + (a+b)/2
	}
	return m.Err()
}

// TestChecksAudit pins the trial step the property checks share with the
// runner: with audit on, an over-spending mechanism fails each check with
// ErrCompositionViolation (unaudited it passes unnoticed), and a sound
// mechanism returns exactly the values of the unaudited run.
func TestChecksAudit(t *testing.T) {
	d, err := dataset.ByName("ADULT")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	shape, err := d.Shape(n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.Generate(newRNG(3), 10_000, n)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Prefix(n)
	type checks struct {
		exch ExchangeabilityResult
		cons ConsistencyResult
		bias BiasVariance
	}
	run := func(a algo.Algorithm, audit bool) (checks, []error) {
		var c checks
		var errs [3]error
		c.exch, errs[0] = CheckExchangeability(a, shape, w, 10_000, 0.5, 10, 3, 1.0, 5, audit)
		c.cons, errs[1] = CheckConsistency(a, x, w, []float64{0.1, 1, 10}, 3, 0.01, 7, audit)
		c.bias, errs[2] = MeasureBias(a, x, w, 0.5, 4, 9, audit)
		return c, errs[:]
	}
	names := []string{"CheckExchangeability", "CheckConsistency", "MeasureBias"}

	_, errs := run(overSpender{}, false)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s unaudited: %v", names[i], err)
		}
	}
	_, errs = run(overSpender{}, true)
	for i, err := range errs {
		if !errors.Is(err, noise.ErrCompositionViolation) {
			t.Errorf("%s audited over-spend: err = %v, want ErrCompositionViolation", names[i], err)
		}
	}

	for _, name := range []string{"HB", "DAWA"} {
		plain, errs := run(mustAlgo(t, name), false)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s %s unaudited: %v", name, names[i], err)
			}
		}
		audited, errs := run(mustAlgo(t, name), true)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s %s audited: %v", name, names[i], err)
			}
		}
		if !reflect.DeepEqual(plain, audited) {
			t.Errorf("%s: audited checks %+v differ from unaudited %+v", name, audited, plain)
		}
	}
}
