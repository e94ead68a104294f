package noise

import (
	"errors"
	"math"
	"testing"
)

func TestAccountantRetentionOff(t *testing.T) {
	a, _ := NewAccountant(1.0)
	a.SetRetainHistory(false)
	for i := 0; i < 5; i++ {
		if err := a.Spend("q", 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("spent %v, want 0.5: running totals must survive retention off", got)
	}
	if got := a.Ledger(); got != nil {
		t.Fatalf("Ledger() = %d spends with retention off, want nil", len(got))
	}
	// Budget enforcement is unchanged: totals, not history, enforce it.
	if err := a.Spend("q", 0.6); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overspend with retention off: %v, want ErrBudgetExhausted", err)
	}
	// Parallel-scope accounting also survives without history.
	a.Reset(1.0)
	a.SetRetainHistory(false)
	a.SpendParallel("p", 0.3)
	a.SpendParallel("p", 0.5)
	if got := a.Spent(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("parallel max with retention off: spent %v, want 0.5", got)
	}
	// Reset re-enables retention: pooled audit accountants need the history.
	a.Reset(1.0)
	if err := a.Spend("q", 0.1); err != nil {
		t.Fatal(err)
	}
	if got := a.Ledger(); len(got) != 1 {
		t.Fatalf("Ledger() after Reset = %d spends, want 1 (retention re-enabled)", len(got))
	}
}

func TestAccountantRestoreBypassesBudgetCheck(t *testing.T) {
	a, _ := NewAccountant(1.0)
	// Recovery must reproduce committed history even past the current total
	// (e.g. the budget was lowered between restarts).
	if err := a.Restore("query ADULT/DAWA", 0.8); err != nil {
		t.Fatal(err)
	}
	if err := a.Restore("query ADULT/DAWA", 0.8); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent(); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("restored spent %v, want 1.6 (no budget check on recovery)", got)
	}
	// Fresh spends still enforce the live total against the restored state.
	if err := a.Spend("query ADULT/DAWA", 0.1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend on over-restored accountant: %v, want ErrBudgetExhausted", err)
	}
	if err := a.Restore("q", -0.1); err == nil {
		t.Fatal("negative restored spend accepted")
	}
}
