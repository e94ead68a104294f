package tree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dpbench/internal/noise"
)

// Flat is an aggregation tree stored as per-node arrays. Nodes are numbered
// in pre-order: every node precedes its subtree, and the subtrees of its
// children follow it one after another, in child order. A node's children
// are listed in kids in the order its region was split (left to right, then
// top to bottom), and a leaf lists its cells row by row. Every per-trial
// pass walks these arrays in that fixed order, so the noise draws, the
// ledger charges and every floating-point sum happen in the same order on
// every build of a shape.
//
// A Flat holds structure only; per-trial values (measurements and the
// inference passes' intermediates) live in a Scratch. SharedInterval,
// SharedGrid and SharedQuad return cached read-only trees that any number of
// concurrent trials share, each drawing its Scratch from the tree's pool.
// RebuildInterval and RebuildKD lay a per-trial shape into a single-owner
// arena that keeps its capacity across rebuilds.
type Flat struct {
	n      int // number of cells covered (leaves partition [0, n))
	height int

	depth  []int32
	kidOff []int32 // children of node i: kids[kidOff[i]:kidOff[i+1]]
	kids   []int32
	celOff []int32 // leaf cells of node i: cells[celOff[i]:celOff[i+1]]
	cells  []int32
	spanLo []int32 // inclusive min and max cell index node i covers
	spanHi []int32

	pool sync.Pool // *Scratch; shared trees only
}

// Scratch holds one trial's per-node values for a Flat: the noisy
// measurements y and the working arrays of the two inference passes. Obtain
// one with Acquire and return it with Release; a Scratch is not safe for
// concurrent use, but distinct Scratches over the same Flat are.
type Scratch struct {
	sums []float64 // exact per-node totals of the trial's data vector
	y    []float64 // noisy measurements
	z    []float64 // combined estimate (upward), then target (downward)
	zvar []float64
	kSum []float64 // sum of children's z, in child order
	kVar []float64 // sum of children's zvar, in child order
	vars []float64 // per-level measurement variance (len height)
}

// NewScratch returns an empty standalone Scratch that grows on demand. It is
// the companion of the Rebuild methods: a rebuilt tree changes its node count
// from trial to trial, so its owner holds one auto-sizing scratch instead of
// drawing from a fixed-size pool.
func NewScratch() *Scratch { return &Scratch{} }

// ensure grows the scratch to cover nodes and height.
func (sc *Scratch) ensure(nodes, height int) {
	sc.sums = resize(sc.sums, nodes)
	sc.y = resize(sc.y, nodes)
	sc.z = resize(sc.z, nodes)
	sc.zvar = resize(sc.zvar, nodes)
	sc.kSum = resize(sc.kSum, nodes)
	sc.kVar = resize(sc.kVar, nodes)
	sc.vars = resize(sc.vars, height)
}

// resize returns s with length n, reallocated only when it lacks capacity.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// --- builders ---
//
// Each builder is an append-only recursion over cell rectangles: it opens a
// node, reserves the node's kid slots, and fills each slot with the child's
// index (the node count when the child opens) just before laying out the
// child's subtree. The recursions are methods, not closures, so a rebuild
// into a warm arena allocates nothing.

// reset empties f for a build over n cells, keeping its capacity.
func (f *Flat) reset(n int) {
	f.n, f.height = n, 0
	f.depth = f.depth[:0]
	f.kidOff = f.kidOff[:0]
	f.kids = f.kids[:0]
	f.celOff = f.celOff[:0]
	f.cells = f.cells[:0]
	f.spanLo = f.spanLo[:0]
	f.spanHi = f.spanHi[:0]
}

// open appends a node at depth covering r on an nx-wide grid. Its kid and
// cell lists start empty at the current ends of kids and cells.
func (f *Flat) open(r Rect, nx, depth int) {
	f.depth = append(f.depth, int32(depth))
	f.spanLo = append(f.spanLo, int32(r.Y0*nx+r.X0))
	f.spanHi = append(f.spanHi, int32((r.Y1-1)*nx+r.X1-1))
	f.kidOff = append(f.kidOff, int32(len(f.kids)))
	f.celOff = append(f.celOff, int32(len(f.cells)))
	if depth >= f.height {
		f.height = depth + 1
	}
}

// reserve extends kids by k slots for the node opened last and returns the
// index of the first. The slots are not zeroed: the caller fills them all.
func (f *Flat) reserve(k int) int {
	base := len(f.kids)
	f.kids = slices.Grow(f.kids, k)[:base+k]
	return base
}

// finish closes kidOff and celOff into prefix form.
func (f *Flat) finish() {
	f.kidOff = append(f.kidOff, int32(len(f.kids)))
	f.celOff = append(f.celOff, int32(len(f.cells)))
}

// gridRec lays out the hierarchy over r in which every level splits each
// side into at most b nearly equal parts (up to b*b children, row by row),
// down to single cells. An interval tree over [0, n) is the n x 1 grid.
func (f *Flat) gridRec(r Rect, nx, depth, b int) {
	f.open(r, nx, depth)
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w == 1 && h == 1 {
		f.cells = append(f.cells, int32(r.Y0*nx+r.X0))
		return
	}
	cx, cy := min(b, w), min(b, h)
	k := f.reserve(cx * cy)
	for yi, y0 := 1, r.Y0; yi <= cy; yi++ {
		y1 := splitEnd(r.Y0, h, yi, cy)
		for xi, x0 := 1, r.X0; xi <= cx; xi++ {
			x1 := splitEnd(r.X0, w, xi, cx)
			f.kids[k] = int32(len(f.depth))
			k++
			f.gridRec(Rect{x0, y0, x1, y1}, nx, depth+1, b)
			x0 = x1
		}
		y0 = y1
	}
}

// splitEnd returns the end of part i (1-based) of [lo, lo+n) split into
// parts nearly equal parts; the last part ends at lo+n without a division.
func splitEnd(lo, n, i, parts int) int {
	if i == parts {
		return lo + n
	}
	return lo + n*i/parts
}

// quadRec lays out the quadtree over r: each level halves both sides (the
// first half takes the odd cell) into its non-empty quadrants, top-left,
// top-right, bottom-left, bottom-right. A node is a leaf at a single cell or
// when it is the last of the remaining levels; such a truncated leaf covers
// its whole rectangle, which is what makes a height-limited QuadTree
// data-dependent and, on large domains, inconsistent (Theorem 5).
func (f *Flat) quadRec(r Rect, nx, depth, remaining int) {
	f.open(r, nx, depth)
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if remaining <= 1 || (w == 1 && h == 1) {
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				f.cells = append(f.cells, int32(y*nx+x))
			}
		}
		return
	}
	xs := [3]int{r.X0, r.X0 + (w+1)/2, r.X1}
	ys := [3]int{r.Y0, r.Y0 + (h+1)/2, r.Y1}
	cx, cy := min(2, w), min(2, h)
	k := f.reserve(cx * cy)
	for yi := 0; yi < cy; yi++ {
		for xi := 0; xi < cx; xi++ {
			f.kids[k] = int32(len(f.depth))
			k++
			f.quadRec(Rect{xs[xi], ys[yi], xs[xi+1], ys[yi+1]}, nx, depth+1, remaining-1)
		}
	}
}

// kdRec lays out the kd node over r described by the head of cuts (see
// RebuildKD) and returns the cuts its subtree did not use.
func (f *Flat) kdRec(r Rect, nx, depth, maxHeight int, cuts []int) ([]int, error) {
	if len(cuts) == 0 {
		return nil, fmt.Errorf("tree: kd cut list ends before region %v", r)
	}
	c, cuts := cuts[0], cuts[1:]
	if c == 0 {
		f.quadRec(r, nx, depth, maxHeight-depth)
		return cuts, nil
	}
	a, b := r, r
	at, lo, hi := c, r.X0, r.X1
	if c > 0 {
		a.X1, b.X0 = at, at
	} else {
		at, lo, hi = -c, r.Y0, r.Y1
		a.Y1, b.Y0 = at, at
	}
	if at <= lo || at >= hi || maxHeight-depth <= 1 {
		return nil, fmt.Errorf("tree: kd cut %d does not split region %v at depth %d", c, r, depth)
	}
	f.open(r, nx, depth)
	k := f.reserve(2)
	f.kids[k] = int32(len(f.depth))
	cuts, err := f.kdRec(a, nx, depth+1, maxHeight, cuts)
	if err != nil {
		return nil, err
	}
	f.kids[k+1] = int32(len(f.depth))
	return f.kdRec(b, nx, depth+1, maxHeight, cuts)
}

// RebuildInterval rebuilds f in place as the b-ary interval tree over
// [0, n), the layout SharedInterval(n, b) caches, reusing f's arrays: the
// per-trial bucket hierarchies of DAWA and SF never repeat often enough to
// cache, and a rebuild into a warm arena allocates nothing. A rebuilt Flat
// is single-owner: do not share it across goroutines or use its
// Acquire/Release pool (use NewScratch).
func (f *Flat) RebuildInterval(n, b int) error {
	if n <= 0 {
		return fmt.Errorf("tree: non-positive domain size %d", n)
	}
	if b < 2 {
		return fmt.Errorf("tree: branching factor %d < 2", b)
	}
	f.reset(n)
	f.gridRec(Rect{X1: n, Y1: 1}, n, 0, b)
	f.finish()
	return nil
}

// RebuildKD rebuilds f in place, reusing its arrays, as HybridTree's
// hierarchy over an nx x ny grid: kd levels on top, and under each kd leaf
// the quadtree of the remaining height, so the tree has at most maxHeight
// levels. cuts lists the kd nodes in pre-order. A zero entry is a kd leaf.
// An entry c > 0 splits its region at column c and -c < 0 at row c, strictly
// inside the region; the entries of its left (or top) half follow, then
// those of its right (or bottom) half. On error f must be rebuilt before
// use. A rebuilt Flat is single-owner, as with RebuildInterval.
func (f *Flat) RebuildKD(nx, ny, maxHeight int, cuts []int) error {
	if nx <= 0 || ny <= 0 {
		return fmt.Errorf("tree: non-positive grid %dx%d", nx, ny)
	}
	if maxHeight < 1 {
		return fmt.Errorf("tree: non-positive height %d", maxHeight)
	}
	f.reset(nx * ny)
	rest, err := f.kdRec(Rect{X1: nx, Y1: ny}, nx, 0, maxHeight, cuts)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("tree: %d kd cuts left over", len(rest))
	}
	f.finish()
	return nil
}

// --- shared structure cache ---
//
// Data-independent structures depend only on their shape parameters, so one
// global cache serves every mechanism instance, cell, and worker. Entries are
// never evicted: the benchmark touches a bounded set of (domain, branching)
// shapes.

var flatCache sync.Map // flatKey -> *Flat

type flatKey struct {
	quad       bool
	nx, ny, bh int // branching factor (grid) or height cap (quad)
}

// shared returns the cached tree for key, laying it out with build and
// giving it a scratch pool on the first request.
func shared(key flatKey, build func(*Flat)) *Flat {
	if v, ok := flatCache.Load(key); ok {
		return v.(*Flat)
	}
	f := &Flat{}
	f.reset(key.nx * key.ny)
	build(f)
	f.finish()
	nodes, height := len(f.depth), f.height
	f.pool.New = func() any {
		sc := NewScratch()
		sc.ensure(nodes, height)
		return sc
	}
	v, _ := flatCache.LoadOrStore(key, f)
	return v.(*Flat)
}

// SharedInterval returns the cached b-ary interval tree over [0, n): each
// level splits a node's range into at most b nearly equal pieces, down to
// single cells. It is the n x 1 SharedGrid.
func SharedInterval(n, b int) (*Flat, error) { return SharedGrid(n, 1, b) }

// SharedGrid returns the cached hierarchy over an nx x ny grid in which
// every level splits each side into at most b nearly equal parts (up to b*b
// children), down to single cells. Hb's 2D variant uses it with its
// variance-optimal b.
func SharedGrid(nx, ny, b int) (*Flat, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("tree: non-positive grid %dx%d", nx, ny)
	}
	if b < 2 {
		return nil, fmt.Errorf("tree: branching factor %d < 2", b)
	}
	return shared(flatKey{nx: nx, ny: ny, bh: b}, func(f *Flat) {
		f.gridRec(Rect{X1: nx, Y1: ny}, nx, 0, b)
	}), nil
}

// SharedQuad returns the cached quadtree over an nx x ny grid with at most
// maxHeight levels.
func SharedQuad(nx, ny, maxHeight int) (*Flat, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("tree: non-positive grid %dx%d", nx, ny)
	}
	if maxHeight < 1 {
		return nil, fmt.Errorf("tree: non-positive height %d", maxHeight)
	}
	return shared(flatKey{quad: true, nx: nx, ny: ny, bh: maxHeight}, func(f *Flat) {
		f.quadRec(Rect{X1: nx, Y1: ny}, nx, 0, maxHeight)
	}), nil
}

// --- per-trial passes ---

// Height returns the number of levels (a single leaf has height 1).
func (f *Flat) Height() int { return f.height }

// Acquire returns a Scratch for one trial over this shared tree.
func (f *Flat) Acquire() *Scratch { return f.pool.Get().(*Scratch) }

// Release returns a Scratch to the pool.
func (f *Flat) Release(sc *Scratch) { f.pool.Put(sc) }

func (f *Flat) isLeaf(i int) bool { return f.kidOff[i] == f.kidOff[i+1] }

// ComputeSums fills sc's exact per-node totals of data in one bottom-up
// pass. A leaf adds its cells in list order and an internal node adds its
// children's sums in child order, which fixes the association of every sum.
func (f *Flat) ComputeSums(data []float64, sc *Scratch) {
	sc.ensure(len(f.depth), f.height)
	for i := len(f.depth) - 1; i >= 0; i-- {
		var s float64
		if f.isLeaf(i) {
			for _, c := range f.cells[f.celOff[i]:f.celOff[i+1]] {
				s += data[c]
			}
		} else {
			for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
				s += sc.sums[k]
			}
		}
		sc.sums[i] = s
	}
}

// MeasureInto draws one Laplace measurement per node at the per-level budget
// epsByLevel, in pre-order, writing noisy totals into the scratch.
// ComputeSums must run first. A zero (or missing) level budget leaves the
// level unmeasured. Each record contributes to one node per level and the
// nodes of a level partition the domain, so each level is one parallel
// scope under LevelLabel(depth) and the whole tree costs sum(epsByLevel).
func (f *Flat) MeasureInto(m *noise.Meter, sc *Scratch, epsByLevel []float64) {
	sc.ensure(len(f.depth), f.height)
	for d := 0; d < f.height; d++ {
		if d < len(epsByLevel) && epsByLevel[d] > 0 {
			eps := epsByLevel[d]
			sc.vars[d] = 2 / (eps * eps)
		} else {
			sc.vars[d] = math.Inf(1)
		}
	}
	for i := range f.depth {
		d := int(f.depth[i])
		if d >= len(epsByLevel) || epsByLevel[d] <= 0 {
			sc.y[i] = 0
			continue
		}
		eps := epsByLevel[d]
		sc.y[i] = sc.sums[i] + m.LaplacePar(LevelLabel(d), 1/eps, eps)
	}
}

// InferInto runs the two-pass weighted least-squares consistency inference
// over the scratch's measurements and writes per-cell estimates into out
// (which is zeroed first). The upward pass combines each node's measurement
// with the sum of its children's estimates by inverse variance; the downward
// pass hands each node's residual to its children in proportion to their
// variances, and a leaf spreads its estimate uniformly over its cells (the
// uniformity assumption of Section 3.1). Both passes visit children in child
// order.
func (f *Flat) InferInto(sc *Scratch, out []float64) {
	nodes := len(f.depth)
	// Upward pass in reverse pre-order: every node's children are processed
	// before the node itself.
	for i := nodes - 1; i >= 0; i-- {
		yvar := sc.vars[f.depth[i]]
		if f.isLeaf(i) {
			if math.IsInf(yvar, 1) {
				// An unmeasured leaf carries no information; estimate 0
				// with huge (but finite) variance so corrections can flow
				// to it.
				sc.z[i], sc.zvar[i] = 0, unmeasuredVar
			} else {
				sc.z[i], sc.zvar[i] = sc.y[i], yvar
			}
			continue
		}
		var childSum, childVar float64
		for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
			childSum += sc.z[k]
			childVar += sc.zvar[k]
		}
		sc.kSum[i], sc.kVar[i] = childSum, childVar
		precY := 0.0
		if !math.IsInf(yvar, 1) && yvar > 0 {
			precY = 1 / yvar
		}
		precC := 0.0
		if childVar > 0 {
			precC = 1 / childVar
		}
		switch {
		case precY == 0 && precC == 0:
			sc.z[i], sc.zvar[i] = childSum, unmeasuredVar
		case precY == 0:
			sc.z[i], sc.zvar[i] = childSum, childVar
		case precC == 0:
			sc.z[i], sc.zvar[i] = sc.y[i], yvar
		default:
			sc.z[i] = (precY*sc.y[i] + precC*childSum) / (precY + precC)
			sc.zvar[i] = 1 / (precY + precC)
		}
	}
	// Downward pass in pre-order: z[i] is promoted in place from combined
	// estimate to final target (parents are fully resolved before children
	// are visited).
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < nodes; i++ {
		if f.isLeaf(i) {
			cells := f.cells[f.celOff[i]:f.celOff[i+1]]
			per := sc.z[i] / float64(len(cells))
			for _, c := range cells {
				out[c] += per
			}
			continue
		}
		resid := sc.z[i] - sc.kSum[i]
		kids := f.kids[f.kidOff[i]:f.kidOff[i+1]]
		varSum := sc.kVar[i]
		for _, k := range kids {
			share := 1.0 / float64(len(kids))
			if varSum > 0 {
				share = sc.zvar[k] / varSum
			}
			sc.z[k] += resid * share
		}
	}
}

// AddCanonicalCount adds, per tree level, the number of maximal nodes fully
// contained in the inclusive cell range [lo, hi] — the canonical range
// decomposition GreedyH weights hierarchy levels by. The walk prunes every
// node whose span misses the range.
func (f *Flat) AddCanonicalCount(lo, hi int, weights []float64) {
	f.addCanonical(0, int32(lo), int32(hi), weights)
}

func (f *Flat) addCanonical(i int, lo, hi int32, weights []float64) {
	if f.spanHi[i] < lo || f.spanLo[i] > hi {
		return
	}
	if lo <= f.spanLo[i] && f.spanHi[i] <= hi {
		weights[f.depth[i]]++
		return
	}
	for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
		f.addCanonical(int(k), lo, hi, weights)
	}
}
