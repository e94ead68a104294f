package algo

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// These are the enforcement tests for the budget-ledger subsystem: every
// registered mechanism, in every supported dimensionality (and again under
// the Rside side-information repair), must spend exactly its epsilon and
// stay inside its declared composition plan — and the audit itself must not
// perturb the noise stream.

func auditVec1D(t *testing.T, seed int64, n int) *vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		if rng.Intn(3) != 0 {
			data[i] = float64(rng.Intn(500))
		}
	}
	x, err := vec.FromData(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func auditVec2D(t *testing.T, seed int64, side int) *vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, side*side)
	for i := range data {
		data[i] = float64(rng.Intn(200))
	}
	x, err := vec.FromData(data, side, side)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// runLedgerAudit plans the mechanism, executes one trial on an audited
// meter, and checks the ledger with Meter.Audit against the declared plan,
// then independently: spends must sum to eps within 1e-9, and at least one
// must be recorded.
func runLedgerAudit(t *testing.T, a Algorithm, x *vec.Vector, w *workload.Workload, eps float64, seed int64) {
	t.Helper()
	pl, ok := a.(Planner)
	if !ok {
		t.Fatalf("%s does not declare a composition plan", a.Name())
	}
	p, err := a.Plan(x, w, eps)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	m, err := noise.NewAuditedMeter(eps, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := p.Execute(m, make([]float64, x.N())); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	if err := m.Audit(pl.CompositionPlan()); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	if diff := math.Abs(m.Spent() - eps); diff > 1e-9 {
		t.Fatalf("%s: ledger sums to %v, want %v (diff %v)", a.Name(), m.Spent(), eps, diff)
	}
}

// TestLedgerAuditAllMechanisms is the registry-driven property test of the
// composition claims in Section 2.1/Table 1: every registered mechanism, on
// 1D and (when supported) 2D domains, across seeds and budgets, passes the
// exact-spend ledger audit.
func TestLedgerAuditAllMechanisms(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, eps := range []float64{0.1, 1.0} {
				for seed := int64(1); seed <= 3; seed++ {
					a, err := New(name)
					if err != nil {
						t.Fatal(err)
					}
					if a.Supports(1) {
						// 64 is the plain power-of-two case; 100 exercises
						// the non-power-of-two budget paths (DAWA's phantom
						// dyadic level, uneven trees).
						for _, n := range []int{64, 100} {
							x := auditVec1D(t, seed, n)
							runLedgerAudit(t, a, x, workload.Prefix(n), eps, seed*31+int64(n))
						}
					}
					if a.Supports(2) {
						x := auditVec2D(t, seed, 16)
						w := workload.RandomRange2D(16, 16, 40, rand.New(rand.NewSource(seed)))
						runLedgerAudit(t, a, x, w, eps, seed*17+5)
					}
				}
			}
		})
	}
}

// TestLedgerAuditSideInfoVariants re-runs the audit with every SideInfoUser
// switched to the Rside private scale estimate (Section 5.2), which adds a
// "scale" spend that must still land the ledger exactly on eps.
func TestLedgerAuditSideInfoVariants(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := a.(SideInfoUser)
		if !ok {
			continue
		}
		s.SetScaleEstimator(0.05)
		t.Run(name+"/Rside", func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				if a.Supports(1) {
					x := auditVec1D(t, seed, 64)
					runLedgerAudit(t, a, x, workload.Prefix(64), 0.5, seed*7+1)
				}
				if a.Supports(2) {
					x := auditVec2D(t, seed, 16)
					w := workload.RandomRange2D(16, 16, 40, rand.New(rand.NewSource(seed)))
					runLedgerAudit(t, a, x, w, 0.5, seed*7+2)
				}
			}
		})
	}
}

// TestAuditedRunBitIdentical pins the core guarantee that lets audit mode
// exist at all: the meter wraps the noise stream without reordering it, so
// RunAudited and plain Run produce bit-identical output for the same seed.
func TestAuditedRunBitIdentical(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			var x *vec.Vector
			var w *workload.Workload
			if a.Supports(1) {
				x = auditVec1D(t, 3, 64)
				w = workload.Prefix(64)
			} else {
				x = auditVec2D(t, 3, 16)
				w = workload.RandomRange2D(16, 16, 40, rand.New(rand.NewSource(3)))
			}
			plain, err := a.Run(x, w, 0.5, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			audited, err := RunAudited(a, x, w, 0.5, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range plain {
				if plain[i] != audited[i] {
					t.Fatalf("cell %d: plain %v != audited %v", i, plain[i], audited[i])
				}
			}
		})
	}
}

// TestLedgerAuditDegenerateDomains covers the budget-math fixes on the
// degenerate branches: single-cell domains (DAWA's forfeited stage one,
// PHP's empty split rounds), and tiny domains where SF has a single bucket.
func TestLedgerAuditDegenerateDomains(t *testing.T) {
	w1 := workload.Prefix(1)
	x1, _ := vec.FromData([]float64{250}, 1)
	for _, name := range []string{"DAWA", "PHP", "SF", "IDENTITY", "UNIFORM", "H", "HB", "GREEDY-H", "EFPA", "MWEM", "AHP", "DPCUBE"} {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"/n=1", func(t *testing.T) {
			runLedgerAudit(t, a, x1, w1, 1.0, 9)
		})
	}
	// n=5 keeps SF at a single bucket (k = ceil(5/10) = 1): the fixed
	// budget math hands the whole structure allocation to measurement.
	x5 := auditVec1D(t, 4, 5)
	sf, _ := New("SF")
	t.Run("SF/n=5", func(t *testing.T) {
		runLedgerAudit(t, sf, x5, workload.Prefix(5), 1.0, 11)
	})
}

// TestEFPAReconstructionIsRealValued is the satellite regression test: for
// every k — including k > n/2, where the retained block overlaps its own
// conjugate mirror — the perturbed spectrum must stay Hermitian, so the
// inverse transform is real-valued (no imaginary mass silently discarded).
func TestEFPAReconstructionIsRealValued(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(rng.Intn(100))
		}
		F := transform.FFTReal(data)
		scale := 1 / math.Sqrt(float64(n))
		for i := range F {
			F[i] *= complex(scale, 0)
		}
		var norm float64
		for _, v := range data {
			norm += math.Abs(v)
		}
		for k := 1; k <= n; k++ {
			m := noise.NewMeter(1.0, rand.New(rand.NewSource(int64(7*n+k))))
			kept := efpaPerturbInto(make([]complex128, n), F, n, k, 0.5, m)
			// Hermitian symmetry of the perturbed spectrum.
			for j := 1; j < n; j++ {
				if d := cmplx.Abs(kept[j] - cmplx.Conj(kept[n-j])); d > 1e-9 {
					t.Fatalf("n=%d k=%d: kept[%d]=%v is not conj of kept[%d]=%v", n, k, j, kept[j], n-j, kept[n-j])
				}
			}
			if imag(kept[0]) != 0 {
				t.Fatalf("n=%d k=%d: DC bin has imaginary part %v", n, k, imag(kept[0]))
			}
			inv := transform.IFFTInto(make([]complex128, n), kept)
			for i, v := range inv {
				if math.Abs(imag(v)) > 1e-9*(1+norm) {
					t.Fatalf("n=%d k=%d: inverse transform cell %d has imaginary mass %v", n, k, i, imag(v))
				}
			}
		}
	}
}

// TestAllPanicsOnRegistryCorruption covers the algo.All error-propagation
// fix indirectly: New on a valid registry never errors, and All never drops
// a registered mechanism.
func TestAllCoversEveryRegisteredName(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All(1) {
		seen[a.Name()] = true
	}
	for _, a := range All(2) {
		seen[a.Name()] = true
	}
	for _, n := range Names() {
		if !seen[n] {
			t.Fatalf("All dropped registered mechanism %q", n)
		}
	}
}
