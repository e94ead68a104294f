package noise

import (
	"math"
	"sync"
	"testing"
)

func TestAccountantSequentialComposition(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("partition", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("counts", 0.75); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spent = %v", got)
	}
	if err := a.Spend("extra", 0.01); err == nil {
		t.Fatal("expected budget-exceeded error")
	}
	if got := a.Remaining(); math.Abs(got) > 1e-12 {
		t.Fatalf("remaining = %v", got)
	}
}

func TestAccountantRejectsBadInputs(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Fatal("expected error for zero budget")
	}
	a, _ := NewAccountant(1)
	if err := a.Spend("x", -0.1); err == nil {
		t.Fatal("expected error for negative spend")
	}
}

func TestAccountantParallelComposition(t *testing.T) {
	// Disjoint buckets each measured at 0.5 cost only 0.5 total.
	a, _ := NewAccountant(1.0)
	for i := 0; i < 10; i++ {
		if err := a.SpendParallel("buckets", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("parallel spends cost %v, want 0.5", got)
	}
	// A later larger parallel spend charges only the excess.
	if err := a.SpendParallel("buckets", 0.7); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("after larger spend: %v, want 0.7", got)
	}
}

func TestAccountantLedger(t *testing.T) {
	a, _ := NewAccountant(1)
	a.Spend("one", 0.1)
	a.SpendParallel("two", 0.2)
	l := a.Ledger()
	if len(l) != 2 || l[0].Label != "one" || !l[1].Parallel {
		t.Fatalf("ledger = %+v", l)
	}
}

func TestAccountantConcurrentSpends(t *testing.T) {
	a, _ := NewAccountant(1.0)
	var wg sync.WaitGroup
	errs := make([]error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Spend("p", 0.02)
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	// Exactly 50 spends of 0.02 fit in 1.0.
	if ok != 50 {
		t.Fatalf("%d spends succeeded, want 50", ok)
	}
	if a.Spent() > 1.0+1e-9 {
		t.Fatalf("overspent: %v", a.Spent())
	}
}

func TestAccountantFloatTolerance(t *testing.T) {
	// Ten spends of 0.1 must fill a budget of 1.0 without a spurious
	// floating-point rejection.
	a, _ := NewAccountant(1.0)
	for i := 0; i < 10; i++ {
		if err := a.Spend("step", 0.1); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
}

func TestAccountantSequentialSpendEndsParallelScope(t *testing.T) {
	// The documented contract: a scope of parallel spends with one label
	// composes by max, and a sequential spend with the SAME label ends the
	// scope — a later parallel spend is charged in full again. (The previous
	// implementation took the global max over the whole ledger, silently
	// under-counting re-opened scopes.)
	a, _ := NewAccountant(1.0)
	if err := a.SpendParallel("part", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("part", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := a.SpendParallel("part", 0.3); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("spent %v, want 0.8 (0.3 + 0.2 + re-opened 0.3)", got)
	}
}

func TestAccountantParallelScopesInterleave(t *testing.T) {
	// Parallel spends under other labels must NOT break a label's scope:
	// pre-order tree walks and nested grids interleave levels freely.
	a, _ := NewAccountant(1.0)
	for i := 0; i < 4; i++ {
		if err := a.SpendParallel("level0", 0.25); err != nil {
			t.Fatal(err)
		}
		if err := a.SpendParallel("level1", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Spent(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("spent %v, want 0.75", got)
	}
}

func TestAccountantResetRetainsCapacity(t *testing.T) {
	a, _ := NewAccountant(1.0)
	for i := 0; i < 100; i++ {
		if err := a.SpendParallel("x", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	a.Reset(2.0)
	if a.Spent() != 0 || len(a.Ledger()) != 0 {
		t.Fatal("reset must clear spends")
	}
	if err := a.Spend("y", 1.5); err != nil {
		t.Fatalf("reset total not applied: %v", err)
	}
	// The parallel cache must also be cleared: a fresh scope charges fully.
	if err := a.SpendParallel("x", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("spent %v, want 2.0", got)
	}
}
