package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"dpbench/internal/noise"
)

// refKD builds the reference kd-then-quad tree by hand from Node values: a
// Node per kd split, with the halves as children, and a quadtree of the
// remaining height under every kd leaf. It reads cuts in the format
// RebuildKD takes and returns the cuts it did not use.
func refKD(nx int, r Rect, heightLeft int, cuts []int) (*Node, []int) {
	c, cuts := cuts[0], cuts[1:]
	if c == 0 {
		return BuildQuadRegion(nx, r, heightLeft), cuts
	}
	a, b := r, r
	if c > 0 {
		a.X1, b.X0 = c, c
	} else {
		a.Y1, b.Y0 = -c, -c
	}
	left, cuts := refKD(nx, a, heightLeft-1, cuts)
	right, cuts := refKD(nx, b, heightLeft-1, cuts)
	return &Node{Children: []*Node{left, right}}, cuts
}

// randomKDCuts draws a pre-order cut list the way HybridTree's kd levels
// grow: each region either stops, or splits at an interior column or row,
// until kdLeft levels are used, the height runs out or the region is a
// single cell. Here the stop, the side and the cut are random.
func randomKDCuts(rng *rand.Rand, r Rect, kdLeft, heightLeft int, cuts []int) []int {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if kdLeft == 0 || heightLeft <= 1 || (w == 1 && h == 1) || rng.Intn(6) == 0 {
		return append(cuts, 0)
	}
	a, b := r, r
	if h == 1 || (w > 1 && rng.Intn(2) == 0) {
		c := r.X0 + 1 + rng.Intn(w-1)
		cuts = append(cuts, c)
		a.X1, b.X0 = c, c
	} else {
		c := r.Y0 + 1 + rng.Intn(h-1)
		cuts = append(cuts, -c)
		a.Y1, b.Y0 = c, c
	}
	cuts = randomKDCuts(rng, a, kdLeft-1, heightLeft-1, cuts)
	return randomKDCuts(rng, b, kdLeft-1, heightLeft-1, cuts)
}

// refKDRoot returns the finalized reference tree for a RebuildKD call.
func refKDRoot(t *testing.T, nx, ny, maxHeight int, cuts []int) *Node {
	t.Helper()
	root, rest := refKD(nx, Rect{X1: nx, Y1: ny}, maxHeight, cuts)
	if len(rest) != 0 {
		t.Fatalf("reference kd tree left %d cuts", len(rest))
	}
	if err := root.Finalize(); err != nil {
		t.Fatal(err)
	}
	return root
}

// assertSameLayout compares every array of got with want, entry by entry.
func assertSameLayout(t *testing.T, name string, got, want *Flat) {
	t.Helper()
	if got.n != want.n || got.Height() != want.Height() || len(got.depth) != len(want.depth) {
		t.Fatalf("%s: shape mismatch (N %d/%d, height %d/%d, nodes %d/%d)", name,
			got.n, want.n, got.Height(), want.Height(), len(got.depth), len(want.depth))
	}
	for _, a := range []struct {
		field     string
		got, want []int32
	}{
		{"depth", got.depth, want.depth},
		{"kidOff", got.kidOff, want.kidOff},
		{"kids", got.kids, want.kids},
		{"celOff", got.celOff, want.celOff},
		{"cells", got.cells, want.cells},
		{"spanLo", got.spanLo, want.spanLo},
		{"spanHi", got.spanHi, want.spanHi},
	} {
		if len(a.got) != len(a.want) {
			t.Fatalf("%s: %s has %d entries, want %d", name, a.field, len(a.got), len(a.want))
		}
		for i := range a.want {
			if a.got[i] != a.want[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", name, a.field, i, a.got[i], a.want[i])
			}
		}
	}
}

// flatTrial runs one measured trial on f and returns its cell estimates.
func flatTrial(f *Flat, sc *Scratch, data, budget []float64, seed int64) []float64 {
	f.ComputeSums(data, sc)
	f.MeasureInto(noise.NewMeter(1, rand.New(rand.NewSource(seed))), sc, budget)
	out := make([]float64, f.n)
	f.InferInto(sc, out)
	return out
}

// TestFlatMatchesNodeBitwise pins the production trees' whole trial pipeline
// (sums, measurement draw order, two-pass inference) to the recursive Node
// reference bit for bit, across interval, grid, truncated quad and
// kd-then-quad shapes. The plan layer's bit-identity rests on it.
func TestFlatMatchesNodeBitwise(t *testing.T) {
	type build struct {
		name string
		flat func() (*Flat, error)
		ref  func() (*Node, error)
	}
	kd := func(nx, ny, h int, cuts ...int) build {
		return build{
			fmt.Sprintf("kd-%dx%d-h%d", nx, ny, h),
			func() (*Flat, error) { f := &Flat{}; return f, f.RebuildKD(nx, ny, h, cuts) },
			func() (*Node, error) { return refKDRoot(t, nx, ny, h, cuts), nil },
		}
	}
	builds := []build{
		{"interval-64-b2", func() (*Flat, error) { return SharedInterval(64, 2) }, func() (*Node, error) { return BuildInterval(64, 2) }},
		{"interval-100-b2", func() (*Flat, error) { return SharedInterval(100, 2) }, func() (*Node, error) { return BuildInterval(100, 2) }},
		{"interval-37-b5", func() (*Flat, error) { return SharedInterval(37, 5) }, func() (*Node, error) { return BuildInterval(37, 5) }},
		{"grid-8x8-b2", func() (*Flat, error) { return SharedGrid(8, 8, 2) }, func() (*Node, error) { return BuildGrid(8, 8, 2) }},
		{"grid-6x9-b3", func() (*Flat, error) { return SharedGrid(6, 9, 3) }, func() (*Node, error) { return BuildGrid(6, 9, 3) }},
		{"quad-16x16-h3", func() (*Flat, error) { return SharedQuad(16, 16, 3) }, func() (*Node, error) { return BuildQuad(16, 16, 3) }},
		{"quad-7x5-h10", func() (*Flat, error) { return SharedQuad(7, 5, 10) }, func() (*Node, error) { return BuildQuad(7, 5, 10) }},
		// kd splits over quadtrees (columns c, rows -c): untruncated,
		// truncated (h4), a lone kd leaf, and two row cuts down a tall region.
		kd(16, 12, 8, 9, -5, 0, 0, -7, 0, 0),
		kd(13, 20, 4, -9, 6, 0, 0, 0),
		kd(9, 9, 10, 0),
		kd(5, 17, 6, -8, -3, 0, 0, 0),
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			flat, err := b.flat()
			if err != nil {
				t.Fatal(err)
			}
			root, err := b.ref()
			if err != nil {
				t.Fatal(err)
			}
			if flat.n != root.Size() || flat.Height() != root.Height() || len(flat.depth) != root.CountNodes() {
				t.Fatalf("flat N/height/nodes %d/%d/%d, node %d/%d/%d",
					flat.n, flat.Height(), len(flat.depth), root.Size(), root.Height(), root.CountNodes())
			}
			data := make([]float64, flat.n)
			rng := rand.New(rand.NewSource(7))
			for i := range data {
				data[i] = float64(rng.Intn(300))
			}
			sc := NewScratch()
			for seed := int64(1); seed <= 4; seed++ {
				for _, budget := range [][]float64{
					UniformLevelBudget(0.8, root.Height()),
					GeometricLevelBudget(0.8, root.Height()),
					// A zero root-level budget exercises the unmeasured-node
					// inference branches.
					append([]float64{0}, UniformLevelBudget(0.8, root.Height())[1:]...),
				} {
					root.Measure(noise.NewMeter(1, rand.New(rand.NewSource(seed))), data, budget)
					want := root.Infer(flat.n)
					got := flatTrial(flat, sc, data, budget, seed)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d cell %d: flat %v != node %v (bitwise)", seed, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestRebuildIntervalMatchesFlatten checks every builder against Flatten of
// the reference Node tree, array by array: SharedInterval and
// RebuildInterval for n <= 70 and b = 2..7, SharedGrid up to 17x17 for
// b = 2..5, SharedQuad up to 17x17 for heights 1..7, and RebuildKD for
// random cut lists. The rebuilds reuse one arena throughout, shrinking and
// growing it.
func TestRebuildIntervalMatchesFlatten(t *testing.T) {
	var arena Flat
	sc := NewScratch()
	rng := rand.New(rand.NewSource(11))
	t.Run("interval", func(t *testing.T) {
		for b := 2; b <= 7; b++ {
			for n := 1; n <= 70; n++ {
				root, err := BuildInterval(n, b)
				if err != nil {
					t.Fatal(err)
				}
				want := Flatten(root)
				name := fmt.Sprintf("interval n=%d b=%d", n, b)
				shared, err := SharedInterval(n, b)
				if err != nil {
					t.Fatal(err)
				}
				assertSameLayout(t, "shared "+name, shared, want)
				if err := arena.RebuildInterval(n, b); err != nil {
					t.Fatal(err)
				}
				assertSameLayout(t, "rebuilt "+name, &arena, want)
				// End to end: one measured trial must match bitwise.
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(rng.Intn(100))
				}
				budget := UniformLevelBudget(0.7, want.Height())
				wout := flatTrial(want, NewScratch(), data, budget, 5)
				gout := flatTrial(&arena, sc, data, budget, 5)
				for i := range wout {
					if gout[i] != wout[i] {
						t.Fatalf("%s cell %d: rebuilt %v != flattened %v", name, i, gout[i], wout[i])
					}
				}
			}
		}
	})
	t.Run("grid", func(t *testing.T) {
		for b := 2; b <= 5; b++ {
			for nx := 1; nx <= 17; nx++ {
				for ny := 1; ny <= 17; ny++ {
					root, err := BuildGrid(nx, ny, b)
					if err != nil {
						t.Fatal(err)
					}
					got, err := SharedGrid(nx, ny, b)
					if err != nil {
						t.Fatal(err)
					}
					assertSameLayout(t, fmt.Sprintf("grid %dx%d b=%d", nx, ny, b), got, Flatten(root))
				}
			}
		}
	})
	t.Run("quad", func(t *testing.T) {
		for h := 1; h <= 7; h++ {
			for nx := 1; nx <= 17; nx++ {
				for ny := 1; ny <= 17; ny++ {
					root, err := BuildQuad(nx, ny, h)
					if err != nil {
						t.Fatal(err)
					}
					got, err := SharedQuad(nx, ny, h)
					if err != nil {
						t.Fatal(err)
					}
					assertSameLayout(t, fmt.Sprintf("quad %dx%d h=%d", nx, ny, h), got, Flatten(root))
				}
			}
		}
	})
	t.Run("kd", func(t *testing.T) {
		var cuts []int
		for i := 0; i < 400; i++ {
			nx, ny := 1+rng.Intn(24), 1+rng.Intn(24)
			h := 1 + rng.Intn(8)
			cuts = randomKDCuts(rng, Rect{X1: nx, Y1: ny}, rng.Intn(5), h, cuts[:0])
			want := Flatten(refKDRoot(t, nx, ny, h, cuts))
			if err := arena.RebuildKD(nx, ny, h, cuts); err != nil {
				t.Fatalf("kd %dx%d h=%d cuts %v: %v", nx, ny, h, cuts, err)
			}
			assertSameLayout(t, fmt.Sprintf("kd %dx%d h=%d cuts %v", nx, ny, h, cuts), &arena, want)
		}
	})
}

// TestRebuildKDRejectsBadCuts checks that a cut list that does not describe
// a tree over the grid is an error.
func TestRebuildKDRejectsBadCuts(t *testing.T) {
	var f Flat
	for _, c := range []struct {
		why       string
		nx, ny, h int
		cuts      []int
	}{
		{"no cuts", 8, 4, 5, nil},
		{"right half missing", 8, 4, 5, []int{4, 0}},
		{"cut left over", 8, 4, 5, []int{0, 0}},
		{"column on the region's edge", 8, 4, 5, []int{8, 0, 0}},
		{"column outside the region", 8, 4, 5, []int{9, 0, 0}},
		{"row on the region's edge", 8, 4, 5, []int{-4, 0, 0}},
		{"row outside the region", 8, 4, 5, []int{-6, 0, 0}},
		{"column outside the half it splits", 8, 4, 5, []int{4, 6, 0, 0, 0}},
		{"no level below the root", 8, 4, 1, []int{4, 0, 0}},
		{"second level has no level below it", 8, 4, 2, []int{4, -2, 0, 0, 0}},
		{"a single cell cannot split", 1, 1, 5, []int{1, 0, 0}},
		{"empty grid", 0, 4, 5, []int{0}},
		{"no levels", 4, 4, 0, []int{0}},
	} {
		if err := f.RebuildKD(c.nx, c.ny, c.h, c.cuts); err == nil {
			t.Errorf("%s (%dx%d h=%d cuts %v): no error", c.why, c.nx, c.ny, c.h, c.cuts)
		}
	}
	// The arena still rebuilds after a rejected list.
	cuts := []int{-5, 0, 0}
	if err := f.RebuildKD(4, 8, 5, cuts); err != nil {
		t.Fatal(err)
	}
	assertSameLayout(t, "rebuild after errors", &f, Flatten(refKDRoot(t, 4, 8, 5, cuts)))
}

// TestSharedStructureCaching checks that the global caches return the same
// immutable structure for repeated shape parameters and reject invalid ones.
func TestSharedStructureCaching(t *testing.T) {
	a, err := SharedInterval(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedInterval(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("SharedInterval did not cache")
	}
	if g, _ := SharedGrid(512, 1, 2); g != a {
		t.Fatal("an interval tree is the n x 1 grid, but they are cached apart")
	}
	if _, err := SharedInterval(0, 2); err == nil {
		t.Fatal("expected error for n=0")
	}
	q1, err := SharedQuad(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := SharedQuad(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("SharedQuad did not cache")
	}
	g1, err := SharedGrid(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A grid and a quad over the same domain are distinct cache entries.
	if any(g1) == any(q1) {
		t.Fatal("grid and quad cache entries collide")
	}
	if q, _ := SharedQuad(8, 8, 2); q == g1 {
		t.Fatal("grid and quad with equal parameters share a cache entry")
	}
}

// TestFlatCanonicalCountMatchesRecursive checks the canonical range
// decomposition counts against a direct recursive walk over the Node tree.
func TestFlatCanonicalCountMatchesRecursive(t *testing.T) {
	root, err := BuildInterval(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := SharedInterval(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rec func(nd *Node, depth, lo, hi int, w []float64)
	rec = func(nd *Node, depth, lo, hi int, w []float64) {
		nlo, nhi := nd.Span()
		if nhi < lo || nlo > hi {
			return
		}
		if lo <= nlo && nhi <= hi {
			w[depth]++
			return
		}
		for _, c := range nd.Children {
			rec(c, depth+1, lo, hi, w)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		lo, hi := rng.Intn(100), rng.Intn(100)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := make([]float64, root.Height())
		rec(root, 0, lo, hi, want)
		got := make([]float64, flat.Height())
		flat.AddCanonicalCount(lo, hi, got)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("query [%d,%d] level %d: %v != %v", lo, hi, d, got[d], want[d])
			}
		}
	}
}
