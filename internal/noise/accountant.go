package noise

import (
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors for programmatic handling. The public dpbench/privacy
// package re-exports them, so callers outside the module can write
// errors.Is(err, privacy.ErrBudgetExhausted) against any error produced by
// the accountant, the meter, the audit, or a mechanism run — the whole chain
// wraps with %w.
var (
	// ErrBudgetExhausted marks a spend that would exceed the accountant's
	// total budget. The serving layer maps it to HTTP 429.
	ErrBudgetExhausted = errors.New("privacy budget exhausted")
	// ErrCompositionViolation marks a ledger that breaks the mechanism's
	// declared composition: an undeclared label, or spends that do not sum
	// to the trial's epsilon.
	ErrCompositionViolation = errors.New("composition plan violated")
)

// Accountant tracks a privacy budget under sequential composition (Section
// 2.1 of the paper: k subroutines satisfying eps_i-DP compose to
// sum(eps_i)-DP). The Meter charges one on every noise draw when auditing is
// enabled, so mechanisms prove — in tests, after every trial — that their
// internal spends compose to exactly the caller's epsilon.
// The zero value is unusable; construct with NewAccountant or Reset.
type Accountant struct {
	mu     sync.Mutex
	total  float64
	spent  float64
	spends []Spend
	// parMax caches, per label, the running maximum of the label's open
	// parallel scope, so SpendParallel charges in O(1) instead of rescanning
	// the whole ledger (previously O(n) per spend, O(n^2) per run).
	parMax map[string]float64
	// retain controls whether every spend is appended to the ledger history.
	// Audit needs the full history; a long-lived serving accountant does not
	// — its history would grow by one Spend per request forever — so the
	// serving layer keeps only the O(1) running totals unless audit is on.
	retain bool
}

// Spend is one recorded budget expenditure.
type Spend struct {
	// Label identifies the subroutine, e.g. "partition" or "counts".
	Label string
	// Eps is the budget consumed.
	Eps float64
	// Parallel marks spends that apply to disjoint data partitions; the
	// spends of a label's open parallel scope count their maximum once
	// (parallel composition). A sequential spend with the same label closes
	// the scope, so a later parallel spend starts a fresh one.
	Parallel bool
}

// NewAccountant returns an accountant for the given total budget.
func NewAccountant(total float64) (*Accountant, error) {
	if total <= 0 {
		return nil, fmt.Errorf("noise: non-positive total budget %v", total)
	}
	a := &Accountant{}
	a.Reset(total)
	return a, nil
}

// Reset clears all recorded spends and re-arms the accountant for a new total
// budget, retaining the ledger's capacity so pooled reuse appends without
// allocating. History retention is re-enabled: pooled accountants serve the
// audit path, which needs the full ledger.
func (a *Accountant) Reset(total float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total = total
	a.spent = 0
	a.spends = a.spends[:0]
	a.retain = true
	if a.parMax == nil {
		a.parMax = make(map[string]float64)
	} else {
		clear(a.parMax)
	}
}

// SetRetainHistory controls whether spends are appended to the ledger
// history (the default). With retention off the accountant keeps only its
// O(1) running totals — Ledger returns nil — which is what a long-lived
// serving accountant wants: its history would otherwise grow by one Spend
// per request for the life of the process. Audit paths require retention.
func (a *Accountant) SetRetainHistory(v bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retain = v
	if !v {
		a.spends = nil
	}
}

// Restore force-applies a recovered spend: no budget check, because the
// spend already passed one when it was first committed — recovery's job is
// to reproduce the recorded history exactly, even if a configuration change (a lowered total budget) means the history now
// exceeds the total. Subsequent regular spends still enforce the current
// total, so an over-budget recovered ledger simply refuses further charges.
func (a *Accountant) Restore(label string, eps float64) error {
	if eps < 0 {
		return fmt.Errorf("noise: negative restored spend %v", eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent += eps
	delete(a.parMax, label)
	if a.retain {
		a.spends = append(a.spends, Spend{Label: label, Eps: eps})
	}
	return nil
}

// Spend consumes eps from the budget for a sequentially composed subroutine.
// It returns an error (without recording) if the budget would be exceeded
// beyond floating-point tolerance. A sequential spend also closes the label's
// open parallel scope, if any.
func (a *Accountant) Spend(label string, eps float64) error {
	return a.spend(label, eps, false)
}

// SpendParallel consumes eps for a parallel-composed family of subroutines
// operating on disjoint partitions: within one scope, repeated SpendParallel
// calls with the same label charge only the running maximum. A scope stays
// open until a sequential spend with the same label ends it; parallel
// spends under other labels may interleave freely, which is what
// level-ordered tree walks and nested grids produce.
func (a *Accountant) SpendParallel(label string, eps float64) error {
	return a.spend(label, eps, true)
}

const budgetTolerance = 1e-9

func (a *Accountant) spend(label string, eps float64, parallel bool) error {
	if eps < 0 {
		return fmt.Errorf("noise: negative spend %v", eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	charge := eps
	if parallel {
		// Only the excess over the scope's prior maximum is charged.
		prevMax, open := a.parMax[label]
		if open && eps <= prevMax {
			charge = 0
		} else {
			charge = eps - prevMax
		}
	}
	if a.spent+charge > a.total+budgetTolerance {
		return fmt.Errorf("noise: %w: spent %v + %v > total %v", ErrBudgetExhausted, a.spent, charge, a.total)
	}
	a.spent += charge
	if parallel {
		if cur, open := a.parMax[label]; !open || eps > cur {
			a.parMax[label] = eps
		}
	} else {
		// A sequential spend with the same label ends the parallel scope.
		delete(a.parMax, label)
	}
	if a.retain {
		a.spends = append(a.spends, Spend{Label: label, Eps: eps, Parallel: parallel})
	}
	return nil
}

// Spent returns the budget consumed so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the unconsumed budget.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - a.spent
}

// Ledger returns a copy of all recorded spends in order, or nil when
// history retention is off (SetRetainHistory).
func (a *Accountant) Ledger() []Spend {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Spend(nil), a.spends...)
}
