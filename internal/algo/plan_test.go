package algo

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// These are the enforcement tests for the Plan/Execute split: for EVERY
// registered mechanism, a plan built once and executed many times must
// reproduce Run bit for bit — same noise-draw order, same arithmetic — on
// power-of-two and non-power-of-two domains, in 1D and 2D, audited and not,
// and with the Rside side-information repair applied. Bit-identity is what
// lets the experiment runner amortize structure building across trials
// without changing a single published number.

func planVec1D(t *testing.T, seed int64, n int) *vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		if rng.Intn(3) != 0 {
			data[i] = float64(rng.Intn(400))
		}
	}
	x, err := vec.FromData(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func planVec2D(t *testing.T, seed int64, side int) *vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, side*side)
	for i := range data {
		data[i] = float64(rng.Intn(150))
	}
	x, err := vec.FromData(data, side, side)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// assertPlanMatchesRun builds ONE plan and executes it for several seeds,
// comparing each trial bitwise against a fresh Run with the same seed —
// proving both the equivalence of the two entry points and that per-trial
// state never leaks between executions of a reused plan.
func assertPlanMatchesRun(t *testing.T, a Algorithm, x *vec.Vector, w *workload.Workload, eps float64, audit bool) {
	t.Helper()
	p, err := a.Plan(x, w, eps)
	if err != nil {
		t.Fatalf("%s: Plan: %v", a.Name(), err)
	}
	out := make([]float64, x.N())
	for seed := int64(1); seed <= 3; seed++ {
		want, err := a.Run(x, w, eps, rand.New(rand.NewSource(seed*977+11)))
		if err != nil {
			t.Fatalf("%s: Run: %v", a.Name(), err)
		}
		rng := rand.New(rand.NewSource(seed*977 + 11))
		if audit {
			err = ExecuteAudited(a, p, eps, rng, out)
		} else {
			err = p.Execute(noise.NewMeter(eps, rng), out)
		}
		if err != nil {
			t.Fatalf("%s: Execute (audit=%v): %v", a.Name(), audit, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s (audit=%v, seed %d) cell %d: Execute %v != Run %v (must be bit-identical)",
					a.Name(), audit, seed, i, out[i], want[i])
			}
		}
	}
}

// TestPlanExecuteMatchesRunAllMechanisms is the registry-wide equivalence
// property: Plan(...).Execute(...) == Run(...) bitwise for every mechanism,
// 1D and 2D, power-of-two and not, audit on and off.
func TestPlanExecuteMatchesRunAllMechanisms(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, audit := range []bool{false, true} {
				for seed := int64(1); seed <= 2; seed++ {
					a, err := New(name)
					if err != nil {
						t.Fatal(err)
					}
					if a.Supports(1) {
						// 64 is the plain power-of-two case; 37 exercises the
						// non-power-of-two paths (padding, phantom dyadic
						// levels, uneven trees).
						for _, n := range []int{64, 37} {
							x := planVec1D(t, seed, n)
							assertPlanMatchesRun(t, a, x, workload.Prefix(n), 0.5, audit)
						}
					}
					if a.Supports(2) {
						x := planVec2D(t, seed, 16)
						w := workload.RandomRange2D(16, 16, 40, rand.New(rand.NewSource(seed)))
						assertPlanMatchesRun(t, a, x, w, 0.5, audit)
					}
				}
			}
		})
	}
}

// TestPlanExecuteMatchesRunRsideVariants repeats the equivalence with every
// SideInfoUser switched to the Rside private scale estimate, which moves the
// scale draw (and any layout derived from it) inside Execute.
func TestPlanExecuteMatchesRunRsideVariants(t *testing.T) {
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
			if a.Supports(1) {
				x := planVec1D(t, 5, 64)
				assertPlanMatchesRun(t, a, x, workload.Prefix(64), 0.5, false)
				assertPlanMatchesRun(t, a, x, workload.Prefix(64), 0.5, true)
			}
			if a.Supports(2) {
				x := planVec2D(t, 5, 16)
				w := workload.RandomRange2D(16, 16, 40, rand.New(rand.NewSource(5)))
				assertPlanMatchesRun(t, a, x, w, 0.5, false)
			}
		})
	}
}

// TestPlanExecuteDegenerateDomains covers the single-cell and tiny domains
// whose budget-math special cases (forfeits, single buckets) must survive
// the plan split.
func TestPlanExecuteDegenerateDomains(t *testing.T) {
	x1, _ := vec.FromData([]float64{250}, 1)
	w1 := workload.Prefix(1)
	x5 := planVec1D(t, 4, 5)
	w5 := workload.Prefix(5)
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Supports(1) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			assertPlanMatchesRun(t, a, x1, w1, 1.0, true)
			assertPlanMatchesRun(t, a, x5, w5, 1.0, true)
		})
	}
}

// TestSharedPlanConcurrentExecute shares one plan across 8 goroutines
// executing simultaneously (run under -race in CI): per-trial state must
// live entirely in pooled scratch, and each goroutine's output must still
// match a serial Run with its seed. The 2d/ cases cover the tree mechanisms'
// 2D plans, including HybridTree's pooled per-trial arenas.
func TestSharedPlanConcurrentExecute(t *testing.T) {
	cases := []struct {
		name string
		dims []int
	}{
		{"H", []int{128}}, {"HB", []int{128}}, {"PRIVELET", []int{128}}, {"GREEDY-H", []int{128}},
		{"EFPA", []int{128}}, {"IDENTITY", []int{128}}, {"DAWA", []int{128}}, {"MWEM", []int{128}},
		{"HYBRIDTREE", []int{32, 32}}, {"QUADTREE", []int{32, 32}}, {"HB", []int{32, 32}}, {"GREEDY-H", []int{32, 32}},
	}
	for _, c := range cases {
		c := c
		sub := c.name
		var x *vec.Vector
		var w *workload.Workload
		if len(c.dims) == 1 {
			x, w = planVec1D(t, 9, c.dims[0]), workload.Prefix(c.dims[0])
		} else {
			sub = "2d/" + c.name
			x = planVec2D(t, 9, c.dims[0])
		}
		t.Run(sub, func(t *testing.T) {
			a, err := New(c.name)
			if err != nil {
				t.Fatal(err)
			}
			n := x.N()
			p, err := a.Plan(x, w, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			outs := make([][]float64, goroutines)
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					out := make([]float64, n)
					for rep := 0; rep < 4; rep++ {
						rng := rand.New(rand.NewSource(int64(g)*71 + 3))
						if err := p.Execute(noise.NewMeter(0.5, rng), out); err != nil {
							errs[g] = err
							return
						}
					}
					outs[g] = out
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				want, err := a.Run(x, w, 0.5, rand.New(rand.NewSource(int64(g)*71+3)))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if outs[g][i] != want[i] {
						t.Fatalf("goroutine %d cell %d: %v != %v", g, i, outs[g][i], want[i])
					}
				}
			}
		})
	}
}

// planPool returns the address of the scratch pool a plan draws from (its
// bufs or states field), or 0 if it has none.
func planPool(p Plan) uintptr {
	v := reflect.ValueOf(p)
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	for _, f := range []string{"bufs", "states"} {
		if fv := v.FieldByName(f); fv.IsValid() && fv.Kind() == reflect.Pointer {
			return fv.Pointer()
		}
	}
	return 0
}

// TestCrossPlanSharedPools checks that the process-wide scratch pools leak
// nothing between plans. For every pooled mechanism it builds two plans of
// one shape, on different data and budgets, which therefore share one pool;
// the MWEM rows marked otherW also give the two plans different workloads
// of one shape. It records each plan's outputs serially, then executes both
// plans interleaved from several goroutines (run under -race in CI). Every
// output must equal the same plan's serial output bit for bit, whichever
// plan used the scratch before.
func TestCrossPlanSharedPools(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Algorithm // nil means New(name)
		dims   []int
		otherW bool // plan B runs over another workload of the same shape
	}{
		{"AHP", nil, []int{128}, false}, {"DAWA", nil, []int{128}, false}, {"DPCUBE", nil, []int{128}, false},
		{"EFPA", nil, []int{128}, false}, {"MWEM", nil, []int{128}, false}, {"PHP", nil, []int{128}, false},
		{"PRIVELET", nil, []int{128}, false}, {"SF", nil, []int{128}, false}, {"MWEM", nil, []int{128}, true},
		{"AGRID", nil, []int{32, 32}, false}, {"AGRID", &AGrid{C: 10, C2: 5, Rho: 0.5, ScaleRho: 0.05}, []int{32, 32}, false},
		{"DAWA", nil, []int{32, 32}, false}, {"DPCUBE", nil, []int{32, 32}, false}, {"GREEDY-H", nil, []int{32, 32}, false},
		{"HYBRIDTREE", nil, []int{32, 32}, false}, {"MWEM*", nil, []int{32, 32}, false}, {"PRIVELET", nil, []int{32, 32}, false},
		{"MWEM*", nil, []int{32, 32}, true},
	}
	const seeds, goroutines, reps = 3, 4, 2
	for _, c := range cases {
		a := c.cfg
		if a == nil {
			var err error
			if a, err = New(c.name); err != nil {
				t.Fatal(err)
			}
		}
		sub := fmt.Sprintf("%dd/%s", len(c.dims), c.name)
		if c.cfg != nil {
			sub += "/Rside"
		}
		if c.otherW {
			sub += "/other-workload"
		}
		t.Run(sub, func(t *testing.T) {
			// Plan B's data is four times plan A's on other cells, at a
			// quarter of the budget, so both plans see the same eps*scale
			// and size their scratch (AGrid's coarse layout) alike.
			var xa, xb *vec.Vector
			var w, wb *workload.Workload
			if len(c.dims) == 1 {
				xa, xb = planVec1D(t, 21, c.dims[0]), planVec1D(t, 22, c.dims[0])
				w = workload.Prefix(c.dims[0])
				wb = workload.RandomRange(c.dims[0], c.dims[0], rand.New(rand.NewSource(24)))
			} else {
				xa, xb = planVec2D(t, 21, c.dims[0]), planVec2D(t, 22, c.dims[0])
				w = workload.RandomRange2D(c.dims[1], c.dims[0], 100, rand.New(rand.NewSource(23)))
				wb = workload.RandomRange2D(c.dims[1], c.dims[0], 100, rand.New(rand.NewSource(24)))
			}
			if !c.otherW {
				wb = w
			}
			for i := range xb.Data {
				xb.Data[i] *= 4
			}
			epsA := 0.5
			epsB := epsA * xa.Scale() / xb.Scale()
			pa, err := a.Plan(xa, w, epsA)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := a.Plan(xb, wb, epsB)
			if err != nil {
				t.Fatal(err)
			}
			if planPool(pa) == 0 || planPool(pa) != planPool(pb) {
				t.Fatalf("the two plans must share one scratch pool (got %#x and %#x)", planPool(pa), planPool(pb))
			}
			plans, eps := []Plan{pa, pb}, []float64{epsA, epsB}
			n := xa.N()
			run := func(k, seed int, out []float64) error {
				rng := rand.New(rand.NewSource(int64(seed)*131 + int64(k)))
				return plans[k].Execute(noise.NewMeter(eps[k], rng), out)
			}
			want := make([][]float64, 2*seeds)
			for j := range want {
				want[j] = make([]float64, n)
				if err := run(j%2, j/2, want[j]); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					out := make([]float64, n)
					for r := 0; r < reps*len(want); r++ {
						j := (r + g) % len(want) // each goroutine walks the cases from its own offset
						if err := run(j%2, j/2, out); err != nil {
							errs[g] = err
							return
						}
						for i := range out {
							if out[i] != want[j][i] {
								errs[g] = fmt.Errorf("plan %c, seed %d, cell %d: %v, serial %v", 'A'+rune(j%2), j/2, i, out[i], want[j][i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
		})
	}
}

// TestMWEMPoolKeyedByShape checks that MWEM's state pool is keyed by shape,
// as every other mechanism's scratch is. A nil workload becomes a fresh
// prefix workload on every Plan, so a pool keyed by the workload would add
// one process-wide pool, pinning that workload, per plan.
func TestMWEMPoolKeyedByShape(t *testing.T) {
	const n, plans = 64, 100
	mwemPools := func() int {
		count := 0
		scratchPools.Range(func(k, _ any) bool {
			if k.(scratchKey).mech == "MWEM" {
				count++
			}
			return true
		})
		return count
	}
	before := mwemPools()
	x := planVec1D(t, 31, n)
	out := make([]float64, n)
	pools := map[uintptr]bool{}
	for i := 0; i < plans; i++ {
		p, err := (&MWEM{T: 5, UpdateSweeps: 1}).Plan(x, nil, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Execute(noise.NewMeter(0.5, rand.New(rand.NewSource(int64(i)))), out); err != nil {
			t.Fatal(err)
		}
		pools[planPool(p)] = true
	}
	if len(pools) != 1 {
		t.Errorf("%d nil-workload MWEM plans drew from %d state pools, want 1", plans, len(pools))
	}
	if added := mwemPools() - before; added > 1 {
		t.Errorf("%d nil-workload MWEM plans added %d MWEM pools, want at most 1", plans, added)
	}
}

// levelWeightsStatic is a linker-allocated workload, valid as the zero
// value with Dims set; weak.Make on its address is a fatal error.
var levelWeightsStatic = workload.Workload{Dims: []int{64}}

// TestGreedyHLevelWeightsFreeDeadWorkloads checks that GreedyH's
// level-weights cache holds its workloads weakly: a reused workload still
// hits, a package-level one included, and plans over fresh workloads leave
// no entries once those workloads are collected. A cache keyed by the
// workload pointer would keep one entry, and its workload, per plan for the
// life of the process.
func TestGreedyHLevelWeightsFreeDeadWorkloads(t *testing.T) {
	const n, b, plans = 64, 5, 100 // a branching factor no other test plans
	entries := func() int {
		count := 0
		levelWeightsCache.Range(func(k, _ any) bool {
			if k := k.(levelWeightsKey); k.n == n && k.b == b {
				count++
			}
			return true
		})
		return count
	}
	if levelWeightsStatic.Size() == 0 {
		for k := 0; k < n; k++ {
			levelWeightsStatic.AddRange(0, k)
		}
	}
	for _, w := range []*workload.Workload{workload.Prefix(n), &levelWeightsStatic} {
		first, again := canonicalLevelWeightsCached(n, b, w), canonicalLevelWeightsCached(n, b, w)
		if len(first) == 0 || &first[0] != &again[0] {
			t.Fatalf("a reused workload (%p) missed the level-weights cache", w)
		}
	}
	// The package-level workload stays reachable, and so does its entry.
	const static = 1

	x := planVec1D(t, 37, n)
	for i := 0; i < plans; i++ {
		if _, err := (&GreedyH{B: b}).Plan(x, workload.Prefix(n), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	// Cleanups run asynchronously after the collection that frees their
	// workload, so poll.
	for deadline := time.Now().Add(time.Second); entries() > static && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if left := entries() - static; left != 0 {
		t.Fatalf("%d level-weights entries outlive their workloads after GC, want 0", left)
	}
}
