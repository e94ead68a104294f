package noise

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeterUnauditedChargesNothing(t *testing.T) {
	m := NewMeter(1.0, rand.New(rand.NewSource(1)))
	if m.acct != nil {
		t.Fatal("NewMeter must not attach an accountant")
	}
	m.Laplace("a", 1, 0.5)
	m.LaplacePar("b", 1, 0.5)
	m.Charge("c", 0.25)
	if m.Spent() != 0 || m.acct != nil {
		t.Fatalf("unaudited meter recorded spends: %v", m.Spent())
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterWrapsNoiseStreamExactly(t *testing.T) {
	// The metered draws must consume the rng identically to the raw
	// primitives, audited or not.
	raw := rand.New(rand.NewSource(7))
	plain := rand.New(rand.NewSource(7))
	audited := rand.New(rand.NewSource(7))
	mp := NewMeter(1.0, plain)
	ma, err := NewAuditedMeter(1.0, audited)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Release()
	for i := 0; i < 20; i++ {
		want := Laplace(raw, 2.5)
		if got := mp.Laplace("a", 2.5, 0.02); got != want {
			t.Fatalf("draw %d: unaudited %v != raw %v", i, got, want)
		}
		if got := ma.LaplacePar("a", 2.5, 0.02); got != want {
			t.Fatalf("draw %d: audited %v != raw %v", i, got, want)
		}
	}
}

func TestMeterAuditExactSpend(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("seq", 10, 0.4)
	for i := 0; i < 5; i++ {
		m.LaplacePar("par", 10, 0.6) // one scope: max = 0.6
	}
	if err := m.Audit(Plan{{Label: "seq", Kind: Sequential}, {Label: "par", Kind: Parallel}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Spent(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spent %v, want 1.0", got)
	}
}

func TestMeterAuditRejectsUnderspend(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("a", 10, 0.5)
	if err := m.Audit(nil); err == nil {
		t.Fatal("audit must fail when only half the budget is spent")
	}
}

func TestMeterAuditRejectsOverspend(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("a", 10, 0.8)
	m.Laplace("a", 10, 0.8) // accountant rejects, meter records the error
	if err := m.Audit(nil); err == nil {
		t.Fatal("audit must surface the overspend")
	}
}

func TestMeterAuditRejectsUndeclaredLabel(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("declared", 10, 0.5)
	m.Laplace("rogue", 10, 0.5)
	err = m.Audit(Plan{{Label: "declared", Kind: Sequential}})
	if err == nil {
		t.Fatal("audit must reject a ledger label outside the plan")
	}
}

func TestMeterAuditRejectsKindMismatch(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.LaplacePar("a", 10, 1.0)
	if err := m.Audit(Plan{{Label: "a", Kind: Sequential}}); err == nil {
		t.Fatal("audit must reject a parallel spend declared sequential")
	}
}

func TestPlanWildcard(t *testing.T) {
	p := Plan{{Label: "level*", Kind: Parallel}}
	if !p.allows("level0", true) || !p.allows("level13", true) {
		t.Fatal("wildcard must match prefixed labels")
	}
	if p.allows("lev", true) || p.allows("level0", false) {
		t.Fatal("wildcard matched too broadly")
	}
}

func TestMeterSubNestedSplit(t *testing.T) {
	m, err := NewAuditedMeter(2.0, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("stage1", 10, 0.5)
	var sub Meter
	m.ResetSub(&sub, "stage2", 1.5, false) // 1.5 of the 2.0 total
	if got := sub.Total(); got != 1.5 {
		t.Fatalf("sub total %v, want 1.5", got)
	}
	sub.Laplace("inner-a", 10, 1.0)
	sub.Laplace("inner-b", 10, 0.5)
	sub.Close()
	if err := m.Audit(Plan{{Label: "stage1", Kind: Sequential}, {Label: "stage2", Kind: Sequential}}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterSubOverspendSurfaces(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	var sub Meter
	m.ResetSub(&sub, "s", 0.5, false)
	sub.Laplace("a", 10, 0.4)
	sub.Laplace("a", 10, 0.4) // exceeds the child's 0.5 cap
	sub.Close()
	if err := m.Audit(nil); err == nil {
		t.Fatal("child overspend must propagate to the parent audit")
	}
}

func TestMeterSubParallelBuckets(t *testing.T) {
	// Three disjoint buckets each spend the full 0.6 internally; the scope
	// totals compose by maximum, so with a 0.4 sequential stage the whole
	// run sums to exactly 1.0.
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Laplace("head", 10, 0.4)
	var b Meter
	for i := 0; i < 3; i++ {
		m.ResetSub(&b, "bucket", 0.6, true)
		b.LaplacePar("level0", 10, 0.2)
		b.LaplacePar("level1", 10, 0.4)
		b.Close()
	}
	if err := m.Audit(Plan{{Label: "head", Kind: Sequential}, {Label: "bucket", Kind: Parallel}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Spent(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spent %v, want 1.0", got)
	}
}

func TestMeterSubUnevenParallelBucketsChargeMax(t *testing.T) {
	// Buckets of different internal structure (3 vs 5 levels) still compose
	// by the maximum of their totals — the case a flat per-level ledger
	// cannot express.
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	labels := []string{"lvl0", "lvl1", "lvl2", "lvl3", "lvl4"}
	var b Meter
	for _, levels := range []int{3, 5} {
		m.ResetSub(&b, "bucket", 1.0, true)
		for l := 0; l < levels; l++ {
			b.LaplacePar(labels[l], 10, 1.0/float64(levels))
		}
		b.Close()
	}
	if err := m.Audit(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterErrOnBadExpMech(t *testing.T) {
	m := NewMeter(1.0, rand.New(rand.NewSource(12)))
	if got := m.ExpMechBuf("sel", nil, 1, 0.5, nil); got != 0 {
		t.Fatalf("ExpMechBuf on empty scores returned %d", got)
	}
	if m.Err() == nil {
		t.Fatal("empty scores must record a meter error")
	}
}

func TestMeterGeometricRejectsBadCalibration(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if got := m.Geometric("g", 0, 0.5); got != 0 {
		t.Fatalf("zero-sensitivity geometric returned %d", got)
	}
	if m.Err() == nil {
		t.Fatal("zero sensitivity must record a meter error, not certify a noise-free release")
	}
	if m.Spent() != 0 {
		t.Fatalf("rejected draw must not charge; spent %v", m.Spent())
	}
}

func TestMeterNonPositiveBudget(t *testing.T) {
	if _, err := NewAuditedMeter(0, rand.New(rand.NewSource(13))); err == nil {
		t.Fatal("NewAuditedMeter must reject eps <= 0")
	}
	m := NewMeter(-1, rand.New(rand.NewSource(13)))
	if m.Err() == nil {
		t.Fatal("NewMeter must record eps <= 0 as a deferred error")
	}
}

func TestMeterChargeMatchesDraws(t *testing.T) {
	m, err := NewAuditedMeter(1.0, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	m.Charge("forfeit", 0.25)
	out := m.LaplaceVecInto("vec", make([]float64, 3), []float64{1, 2, 3}, 2, 0.5)
	if len(out) != 3 {
		t.Fatalf("LaplaceVecInto len %d", len(out))
	}
	if g := m.Geometric("geo", 1, 0.25); g == math.MaxInt64 {
		t.Fatal("geometric overflow")
	}
	if err := m.Audit(Plan{
		{Label: "forfeit", Kind: Sequential},
		{Label: "vec", Kind: Sequential},
		{Label: "geo", Kind: Sequential},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricDistribution(t *testing.T) {
	// Mean 0, variance 2*alpha/(1-alpha)^2 with alpha = exp(-1/scale).
	rng := rand.New(rand.NewSource(99))
	const scale = 2.0
	const n = 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(Geometric(rng, scale))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	alpha := math.Exp(-1 / scale)
	wantVar := 2 * alpha / ((1 - alpha) * (1 - alpha))
	gotVar := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean %v, want ~0", mean)
	}
	if math.Abs(gotVar-wantVar)/wantVar > 0.05 {
		t.Fatalf("variance %v, want ~%v", gotVar, wantVar)
	}
	if Geometric(rng, 0) != 0 {
		t.Fatal("non-positive scale must return 0")
	}
}

func TestMeterUnauditedDrawsAllocateNothing(t *testing.T) {
	m := NewMeter(1.0, rand.New(rand.NewSource(15)))
	scores := []float64{1, 2, 3}
	buf := make([]float64, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Laplace("a", 1, 0.1)
		m.LaplacePar("b", 1, 0.1)
		m.ExpMechBuf("c", scores, 1, 0.1, buf)
		m.Charge("d", 0.1)
	}); allocs != 0 {
		t.Fatalf("unaudited meter draws allocate %v per run, want 0", allocs)
	}
}
