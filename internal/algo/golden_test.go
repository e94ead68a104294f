package algo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dpbench/internal/dataset"
	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// This file pins the optimized MWEM and DAWA hot paths to the seed
// implementations, which are retained below verbatim (modulo the
// struct-of-arrays workload accessors). DAWA's rewrite only changes how
// interval deviation costs are computed — at most a few ulps per cost under
// Laplace noise of scale >> 1 — so its output must stay bit-identical.
// MWEM's rewrite folds the per-entry renormalization division into a
// deferred scalar, an algebraically exact transformation that reassociates
// floating-point multiplies; its output is pinned to the reference within a
// tight relative tolerance and must stay exactly reproducible run to run.

// --- reference (seed) MWEM ---

func refMWEMRun(m *MWEM, x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if w == nil || w.Size() == 0 {
		w = workload.Prefix(x.N())
	}
	epsLeft := eps
	scale := x.Scale()
	if m.ScaleRho > 0 {
		epsScale := eps * m.ScaleRho
		scale += noise.Laplace(rng, 1/epsScale)
		if scale < 1 {
			scale = 1
		}
		epsLeft -= epsScale
	}
	rounds := m.T
	if rounds <= 0 {
		prof := m.TFromSignal
		if prof == nil {
			prof = DefaultTProfile
		}
		rounds = prof(eps * scale)
	}
	if rounds < 1 {
		rounds = 1
	}
	if rounds > w.Size() {
		rounds = w.Size()
	}
	sweeps := m.UpdateSweeps
	if sweeps < 1 {
		sweeps = 1
	}

	n := x.N()
	est := make([]float64, n)
	uniformSpread(est, 0, n, scale)
	trueAns, err := w.Evaluate(x)
	if err != nil {
		return nil, err
	}

	epsRound := epsLeft / float64(rounds)
	type meas struct {
		query int
		value float64
	}
	var history []meas
	chosen := make(map[int]bool)

	for t := 0; t < rounds; t++ {
		estAns := w.EvaluateFlat(est)
		scores := make([]float64, w.Size())
		for i := range scores {
			if chosen[i] {
				scores[i] = math.Inf(-1)
				continue
			}
			scores[i] = math.Abs(trueAns[i] - estAns[i])
		}
		q, err := noise.ExpMechBuf(rng, scores, 1, epsRound/2, nil)
		if err != nil {
			return nil, err
		}
		chosen[q] = true
		value := trueAns[q] + noise.Laplace(rng, 2/epsRound)
		history = append(history, meas{q, value})

		for s := 0; s < sweeps; s++ {
			for _, h := range history {
				refUpdate(w, est, scale, h.query, h.value)
			}
		}
	}
	return est, nil
}

// refUpdate is the reference multiplicative-weights step: it scales the
// cells query k covers by the clamped factor, then renormalizes every cell
// so the estimate sums to scale.
func refUpdate(w *workload.Workload, est []float64, scale float64, k int, value float64) {
	cur := refAnswerOne(w, k, est)
	factor := (value - cur) / (2 * scale)
	if factor > 30 {
		factor = 30
	} else if factor < -30 {
		factor = -30
	}
	mult := math.Exp(factor)
	var newTotal float64
	for cell := range est {
		if refCovers(w, k, cell) {
			est[cell] *= mult
		}
		newTotal += est[cell]
	}
	if newTotal > 0 {
		adj := scale / newTotal
		for cell := range est {
			est[cell] *= adj
		}
	}
}

// refCovers reports whether query k of w covers the flat cell index.
func refCovers(w *workload.Workload, k, cell int) bool {
	if len(w.Dims) == 1 {
		lo, hi := w.Range(k)
		return cell >= lo && cell <= hi
	}
	y0, x0, y1, x1 := w.Rect(k)
	y, x := cell/w.Dims[1], cell%w.Dims[1]
	return y >= y0 && y <= y1 && x >= x0 && x <= x1
}

func refAnswerOne(w *workload.Workload, k int, est []float64) float64 {
	var s float64
	switch len(w.Dims) {
	case 1:
		lo, hi := w.Range(k)
		for i := lo; i <= hi; i++ {
			s += est[i]
		}
	case 2:
		y0, x0, y1, x1 := w.Rect(k)
		nx := w.Dims[1]
		for y := y0; y <= y1; y++ {
			for xc := x0; xc <= x1; xc++ {
				s += est[y*nx+xc]
			}
		}
	}
	return s
}

// --- reference (seed) DAWA stage one ---

func refDAWAPartition(d *DAWA, data []float64, eps1, eps2 float64, rng *rand.Rand) []int {
	n := len(data)
	if n == 1 {
		return []int{0, 1}
	}
	levels := log2Ceil(n) + 1
	costNoise := 2 * float64(levels) / eps1
	penalty := 1 / eps2

	type candidate struct {
		lo, hi int
		cost   float64
	}
	var cands []candidate
	if d.NoDyadicRestriction {
		allNoise := 2 * float64(n) / eps1
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				c := l1Deviation(data[lo:hi]) + noise.Laplace(rng, allNoise)
				cands = append(cands, candidate{lo, hi, c})
			}
		}
	} else {
		for size := 1; size <= n; size <<= 1 {
			for lo := 0; lo+size <= n; lo += size {
				c := l1Deviation(data[lo:lo+size]) + noise.Laplace(rng, costNoise)
				if c < 0 {
					c = 0
				}
				cands = append(cands, candidate{lo, lo + size, c})
			}
		}
	}

	byEnd := make([][]candidate, n+1)
	for _, c := range cands {
		byEnd[c.hi] = append(byEnd[c.hi], c)
	}
	best := make([]float64, n+1)
	back := make([]int, n+1)
	for j := 1; j <= n; j++ {
		best[j] = math.Inf(1)
		back[j] = j - 1
		for _, c := range byEnd[j] {
			total := best[c.lo] + c.cost + penalty
			if total < best[j] {
				best[j] = total
				back[j] = c.lo
			}
		}
	}
	var bounds []int
	for j := n; j > 0; j = back[j] {
		bounds = append(bounds, j)
	}
	bounds = append(bounds, 0)
	sort.Ints(bounds)
	return bounds
}

func refDAWARun1D(d *DAWA, data []float64, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	rho := d.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.25
	}
	b := d.B
	if b < 2 {
		b = 2
	}
	n := len(data)
	eps1 := rho * eps
	eps2 := (1 - rho) * eps

	bounds := refDAWAPartition(d, data, eps1, eps2, rng)
	k := len(bounds) - 1
	bucketData := make([]float64, k)
	for i := 0; i < k; i++ {
		for c := bounds[i]; c < bounds[i+1]; c++ {
			bucketData[i] += data[c]
		}
	}
	weights := bucketLevelWeights(n, k, b, bounds, w)
	// Stage two: GreedyH over the buckets on the shared interval tree.
	flat, err := tree.SharedInterval(k, b)
	if err != nil {
		return nil, err
	}
	bucketEst := make([]float64, k)
	flatTreeEstimate(flat, bucketData, levelBudgetFromWeights(eps2, flat.Height(), weights), noise.NewMeter(eps2, rng), bucketEst)
	out := make([]float64, n)
	for i := 0; i < k; i++ {
		uniformSpread(out, bounds[i], bounds[i+1], bucketEst[i])
	}
	return out, nil
}

// --- golden data helpers ---

func goldenData(rng *rand.Rand, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		// Clustered integer counts with zero stretches, the regime DAWA's
		// partition cost structure is sensitive to.
		if rng.Intn(3) == 0 {
			data[i] = float64(rng.Intn(200))
		}
	}
	return data
}

func goldenVec(t *testing.T, rng *rand.Rand, dims ...int) *vec.Vector {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	v, err := vec.FromData(goldenData(rng, n), dims...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// --- golden tests ---

func TestDAWAGoldenBitIdentical1D(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 2, 7, 64, 200, 256} {
			rng := rand.New(rand.NewSource(seed))
			data := goldenData(rng, n)
			x, _ := vec.FromData(append([]float64(nil), data...), n)
			w := workload.Prefix(n)
			d := &DAWA{Rho: 0.25, B: 2}
			got, err := d.Run(x, w, 0.1, rand.New(rand.NewSource(seed*31+7)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDAWARun1D(d, data, w, 0.1, rand.New(rand.NewSource(seed*31+7)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d cell %d: %v != %v (bitwise)", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDAWAGoldenBitIdentical2D(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := goldenVec(t, rng, 16, 16)
		d := &DAWA{Rho: 0.25, B: 2}
		got, err := d.Run(x, nil, 0.5, rand.New(rand.NewSource(seed*17+3)))
		if err != nil {
			t.Fatal(err)
		}
		// The 2D path linearizes along the Hilbert curve and runs the 1D
		// pipeline; replicate it against the reference stage one.
		lin, perm, err := transform.HilbertLinearize(x.Data, 16)
		if err != nil {
			t.Fatal(err)
		}
		est, err := refDAWARun1D(d, lin, nil, 0.5, rand.New(rand.NewSource(seed*17+3)))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(est))
		for d, src := range perm {
			want[src] = est[d]
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d cell %d: %v != %v (bitwise)", seed, i, got[i], want[i])
			}
		}
	}
}

func TestDAWAAblationGoldenBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 5, 33, 64} {
			rng := rand.New(rand.NewSource(seed))
			data := goldenData(rng, n)
			x, _ := vec.FromData(append([]float64(nil), data...), n)
			w := workload.Prefix(n)
			d := &DAWA{Rho: 0.25, B: 2, NoDyadicRestriction: true}
			got, err := d.Run(x, w, 0.1, rand.New(rand.NewSource(seed*13+1)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refDAWARun1D(d, data, w, 0.1, rand.New(rand.NewSource(seed*13+1)))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d cell %d: %v != %v (bitwise)", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

// mwemTolerance is the per-cell relative tolerance pinning the optimized
// MWEM to the reference: the deferred-normalization scalar reassociates one
// multiply per renormalization, so agreement is at the accumulated-ulp
// level, far tighter than any statistical property of the mechanism.
const mwemTolerance = 1e-9

func TestMWEMGoldenMatchesReference1D(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{16, 64, 128} {
			rng := rand.New(rand.NewSource(seed))
			x := goldenVec(t, rng, n)
			w := workload.Prefix(n)
			m := &MWEM{T: 6, UpdateSweeps: 2}
			got, err := m.Run(x, w, 0.5, rand.New(rand.NewSource(seed*101+9)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMWEMRun(m, x, w, 0.5, rand.New(rand.NewSource(seed*101+9)))
			if err != nil {
				t.Fatal(err)
			}
			compareWithinTolerance(t, got, want, seed, n)
		}
	}
}

func TestMWEMStarGoldenMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := goldenVec(t, rng, 64)
		w := workload.Prefix(64)
		m := &MWEM{TFromSignal: DefaultTProfile, ScaleRho: 0.05, UpdateSweeps: 2, starred: true}
		got, err := m.Run(x, w, 0.5, rand.New(rand.NewSource(seed*7+5)))
		if err != nil {
			t.Fatal(err)
		}
		ref := &MWEM{TFromSignal: DefaultTProfile, ScaleRho: 0.05, UpdateSweeps: 2, starred: true}
		want, err := refMWEMRun(ref, x, w, 0.5, rand.New(rand.NewSource(seed*7+5)))
		if err != nil {
			t.Fatal(err)
		}
		compareWithinTolerance(t, got, want, seed, 64)
	}
}

func TestMWEMGoldenMatchesReference2D(t *testing.T) {
	// 8x8 is a single tile; 64x64 at T = 70 (the sweep's round count at
	// scale 1e7) crosses many tiles; 37x21 clips the edge tiles.
	cases := []struct {
		ny, nx, queries, rounds int
		seeds                   int64
	}{
		{8, 8, 60, 5, 4},
		{64, 64, 300, 70, 1},
		{37, 21, 100, 20, 2},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d/T=%d", c.ny, c.nx, c.rounds), func(t *testing.T) {
			for seed := int64(1); seed <= c.seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				x := goldenVec(t, rng, c.ny, c.nx)
				w := workload.RandomRange2D(c.nx, c.ny, c.queries, rand.New(rand.NewSource(seed+99)))
				m := &MWEM{T: c.rounds, UpdateSweeps: 2}
				got, err := m.Run(x, w, 0.5, rand.New(rand.NewSource(seed*19+2)))
				if err != nil {
					t.Fatal(err)
				}
				want, err := refMWEMRun(m, x, w, 0.5, rand.New(rand.NewSource(seed*19+2)))
				if err != nil {
					t.Fatal(err)
				}
				compareWithinTolerance(t, got, want, seed, c.ny*c.nx)
			}
		})
	}
}

// TestMWEMStarGoldenMatchesReference2D pins MWEM* on one of the sweep's
// slowest cells: a registered 2D dataset at 128x128, scale 1e7 and eps 0.1
// over 2000 random rectangles, where the private scale estimate (ScaleRho)
// sets T = 70.
func TestMWEMStarGoldenMatchesReference2D(t *testing.T) {
	d, err := dataset.ByName("BJ-CABS-S")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x, err := d.Generate(rng, 1e7, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.RandomRange2D(128, 128, 2000, rng)
	m := &MWEM{TFromSignal: DefaultTProfile, ScaleRho: 0.05, UpdateSweeps: 2, starred: true}
	got, err := m.Run(x, w, 0.1, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMWEMRun(m, x, w, 0.1, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	compareWithinTolerance(t, got, want, 41, x.N())
}

func compareWithinTolerance(t *testing.T, got, want []float64, seed int64, n int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d n=%d: length %d != %d", seed, n, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		denom := math.Abs(want[i])
		if denom < 1 {
			denom = 1
		}
		if !(diff/denom <= mwemTolerance) { // a NaN fails too
			t.Fatalf("seed %d n=%d cell %d: %v vs %v (rel diff %v)", seed, n, i, got[i], want[i], diff/denom)
		}
	}
}

func TestMWEMExactlyReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x := goldenVec(t, rng, 256)
	w := workload.Prefix(256)
	m := &MWEM{T: 10, UpdateSweeps: 2}
	a, err := m.Run(x, w, 0.1, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(x, w, 0.1, rand.New(rand.NewSource(123)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: %v != %v — MWEM must be bit-reproducible for a fixed seed", i, a[i], b[i])
		}
	}

	// 2D: a fresh state and the same state recycled after another trial
	// give the same bits. The pool hands out one state, so the third
	// Execute reuses it whatever sync.Pool keeps.
	x2 := goldenVec(t, rng, 40, 36)
	w2 := workload.RandomRange2D(36, 40, 200, rand.New(rand.NewSource(5)))
	p, err := (&MWEM{T: 20, UpdateSweeps: 2}).Plan(x2, w2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	st := newMWEMState(w2.Dims, w2.Size(), 8)
	p.(*mwemPlan).states = &sync.Pool{New: func() any { return st }}
	runs := make([][]float64, 3)
	for i, seed := range []int64{123, 456, 123} {
		runs[i] = make([]float64, x2.N())
		if err := p.Execute(noise.NewMeter(0.1, rand.New(rand.NewSource(seed))), runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range runs[0] {
		if runs[0][i] != runs[2][i] {
			t.Fatalf("2D cell %d: fresh state %v, recycled state %v", i, runs[0][i], runs[2][i])
		}
	}
}

// TestMulTileGridMatchesFlat drives the tile grid and a flat vector through
// the same random rectangle multiplies, on shapes with clipped edge tiles,
// single rows and columns, and rectangles inside one tile.
func TestMulTileGridMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range [][2]int{{1, 1}, {1, 13}, {13, 1}, {8, 8}, {9, 17}, {16, 24}, {37, 21}} {
		ny, nx := d[0], d[1]
		g := newMulTileGrid(ny, nx)
		g.fill(1)
		flat := make([]float64, ny*nx)
		uniformSpread(flat, 0, len(flat), float64(len(flat)))
		for step := 1; step <= 200; step++ {
			y0, y1 := rng.Intn(ny), rng.Intn(ny)
			x0, x1 := rng.Intn(nx), rng.Intn(nx)
			y0, y1 = min(y0, y1), max(y0, y1)+1
			x0, x1 = min(x0, x1), max(x0, x1)+1
			var want float64
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					want += flat[y*nx+x]
				}
			}
			if got := g.CollectRect(y0, x0, y1, x1); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%dx%d step %d: rectangle [%d,%d)x[%d,%d) sums to %v, want %v", ny, nx, step, y0, y1, x0, x1, got, want)
			}
			f := math.Exp(2*rng.Float64() - 1)
			g.ApplyCollected(f)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					flat[y*nx+x] *= f
				}
			}
			if step%50 == 0 {
				g.Flatten(1)
			}
		}
		g.Flatten(1)
		compareWithinTolerance(t, g.cell, flat, 11, ny*nx)
	}
}

// TestMWEMOverflowGuardMatchesFlatReplay replays two histories whose
// factors clamp to +-30 every time, and the guarded state must match a flat
// replay of the same history that renormalizes every step. In the first, a
// covering query clamps to +30, so the raw weights would pass 1e308 without
// the overflow guard in update. In the second, a query covering one 8x8
// tile (a segment of eight cells in 1D) clamps to -30 and its two halves to
// +30: the raw total stays put, but each replay divides the whole tile's
// multiplier by e^30 and multiplies its cut cells by e^30, so without the
// fold in collectCut the cells overflow after about 24 replays.
func TestMWEMOverflowGuardMatchesFlatReplay(t *testing.T) {
	const scale, reps = 1e4, 30 // e^(30*30) * 1e4 overflows a float64
	for _, tc := range []struct {
		name  string
		dims  []int
		drift bool
	}{
		{"covering-1d", []int{300}, false},
		{"covering-2d", []int{37, 21}, false},
		{"tile-halves-1d", []int{300}, true},
		{"tile-halves-2d", []int{37, 21}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w *workload.Workload
			switch rng := rand.New(rand.NewSource(6)); {
			case tc.drift && len(tc.dims) == 1:
				w = &workload.Workload{Dims: tc.dims}
				w.AddRange(8, 15)
				w.AddRange(8, 11)
				w.AddRange(12, 15)
			case tc.drift:
				w = &workload.Workload{Dims: tc.dims}
				w.AddRect(8, 8, 15, 15)
				w.AddRect(8, 8, 15, 11)
				w.AddRect(8, 12, 15, 15)
			case len(tc.dims) == 1:
				w = workload.RandomRange(tc.dims[0], 3, rng)
				w.AddRange(2, tc.dims[0]-3)
			default:
				w = workload.RandomRange2D(tc.dims[1], tc.dims[0], 3, rng)
				w.AddRect(2, 3, tc.dims[0]-2, tc.dims[1]-4)
			}
			hist := []measurement{{0, 0.2 * scale}, {1, 0.5 * scale}, {2, 0.1 * scale}, {3, 1e6 * scale}}
			if tc.drift {
				hist = []measurement{{0, -1e6 * scale}, {1, 1e6 * scale}, {2, 1e6 * scale}}
			}
			st := newMWEMState(w.Dims, w.Size(), len(hist))
			st.bind(w)
			st.reset(scale)
			st.hist = append(st.hist, hist...)
			flat := make([]float64, len(st.est))
			uniformSpread(flat, 0, len(flat), scale)
			for r := 0; r < reps; r++ {
				st.replay()
				for _, h := range hist {
					refUpdate(w, flat, scale, h.query, h.value)
				}
			}
			st.materialize()
			compareWithinTolerance(t, st.est, flat, int64(len(tc.dims)), len(flat))
		})
	}
}

// --- deviation-kernel goldens ---

func TestDyadicDeviationsMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{1, 2, 3, 13, 64, 100} {
			rng := rand.New(rand.NewSource(seed))
			data := goldenData(rng, n)
			type iv struct{ lo, size int }
			want := map[iv]float64{}
			var order []iv
			for size := 1; size <= n; size <<= 1 {
				for lo := 0; lo+size <= n; lo += size {
					want[iv{lo, size}] = l1Deviation(data[lo : lo+size])
					order = append(order, iv{lo, size})
				}
			}
			var gotOrder []iv
			dyadicDeviations(data, func(lo, size int, dev float64) {
				gotOrder = append(gotOrder, iv{lo, size})
				naive := want[iv{lo, size}]
				tol := 1e-9 * (1 + math.Abs(naive))
				if math.Abs(dev-naive) > tol {
					t.Fatalf("seed %d n=%d [%d,%d): dev %v, naive %v", seed, n, lo, lo+size, dev, naive)
				}
			})
			if len(gotOrder) != len(order) {
				t.Fatalf("seed %d n=%d: visited %d intervals, want %d", seed, n, len(gotOrder), len(order))
			}
			for i := range order {
				if gotOrder[i] != order[i] {
					t.Fatalf("seed %d n=%d: visit order diverges at %d: %+v vs %+v — the noise stream depends on this order", seed, n, i, gotOrder[i], order[i])
				}
			}
		}
	}
}

func TestL1DevScannerMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{1, 2, 9, 50} {
			rng := rand.New(rand.NewSource(seed))
			data := goldenData(rng, n)
			scan := newL1DevScanner(data)
			for lo := 0; lo < n; lo++ {
				scan.Restart()
				for hi := lo + 1; hi <= n; hi++ {
					scan.Push(hi - 1)
					got := scan.Deviation()
					naive := l1Deviation(data[lo:hi])
					tol := 1e-9 * (1 + math.Abs(naive))
					if math.Abs(got-naive) > tol {
						t.Fatalf("seed %d n=%d [%d,%d): got %v, naive %v", seed, n, lo, hi, got, naive)
					}
				}
			}
		}
	}
}

// --- allocation regressions ---

func TestMWEMUpdatePathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 1024
	w := workload.Prefix(n)
	x := goldenVec(t, rng, n)
	trueAns, err := w.Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	st := newMWEMState(w.Dims, w.Size(), 8)
	st.bind(w)
	st.reset(x.Scale())
	// Seed a history the replay sweeps over.
	for i := 0; i < 8; i++ {
		st.hist = append(st.hist, measurement{query: (i * 97) % n, value: trueAns[(i*97)%n] + float64(i)})
	}
	checkMWEMStateAllocs(t, st, trueAns)

	// The 2D state of the sweep's grid, over its 2000 rectangles.
	w2 := workload.RandomRange2D(128, 128, 2000, rand.New(rand.NewSource(56)))
	x2 := goldenVec(t, rng, 128, 128)
	trueAns2, err := w2.Evaluate(x2)
	if err != nil {
		t.Fatal(err)
	}
	st2 := newMWEMState(w2.Dims, w2.Size(), 8)
	st2.bind(w2)
	st2.reset(x2.Scale())
	for i := 0; i < 8; i++ {
		q := (i * 241) % w2.Size()
		st2.hist = append(st2.hist, measurement{query: q, value: trueAns2[q] + float64(i)})
	}
	checkMWEMStateAllocs(t, st2, trueAns2)
}

// checkMWEMStateAllocs fails if a replay sweep or a selection round of st
// allocates.
func checkMWEMStateAllocs(t *testing.T, st *mwemState, trueAns []float64) {
	t.Helper()
	if allocs := testing.AllocsPerRun(50, func() { st.replay() }); allocs != 0 {
		t.Fatalf("MWEM replay over %v allocates %v per sweep, want 0", st.w.Dims, allocs)
	}
	selMeter := noise.NewMeter(1, rand.New(rand.NewSource(9)))
	if allocs := testing.AllocsPerRun(50, func() {
		q := st.selectQuery(trueAns, 0.05, selMeter)
		st.chosen[q] = false // keep the candidate set non-empty across runs
	}); allocs != 0 {
		t.Fatalf("MWEM selection over %v allocates %v per round, want 0", st.w.Dims, allocs)
	}
}
