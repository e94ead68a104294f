package tree

import (
	"fmt"
	"math"

	"dpbench/internal/noise"
)

// This file holds the recursive pointer-tree implementation that the flat
// builders and the flat inference are checked against: Node and its
// builders, Measure and the two-pass Infer, and Flatten, which lays a Node
// tree out in Flat's pre-order arrays.

// Node is one node of an aggregation tree. A leaf covers an explicit set of
// flat cell indices; an internal node covers the union of its children.
type Node struct {
	// Children is nil for leaves.
	Children []*Node
	// Cells lists the flat cell indices covered; populated only on leaves.
	Cells []int

	// Y is the noisy measurement of the node total and Var its variance.
	// Var == +Inf marks an unmeasured node, which contributes no
	// information of its own during inference.
	Y   float64
	Var float64

	size   int     // number of cells covered (cached)
	lo, hi int     // inclusive min/max covered cell index (cached)
	z      float64 // combined estimate from the upward inference pass
	zvar   float64 // variance of z
}

// Size returns the number of cells the node covers.
func (nd *Node) Size() int { return nd.size }

// Span returns the inclusive [lo, hi] range of cell indices the node covers,
// cached at Finalize time. For interval trees the node covers exactly this
// contiguous range; for spatial trees it is the min/max flat index.
func (nd *Node) Span() (lo, hi int) { return nd.lo, nd.hi }

// IsLeaf reports whether the node has no children.
func (nd *Node) IsLeaf() bool { return len(nd.Children) == 0 }

// Height returns the number of levels in the subtree rooted at nd (a single
// leaf has height 1).
func (nd *Node) Height() int {
	h := 0
	for _, c := range nd.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// CountNodes returns the number of nodes in the subtree.
func (nd *Node) CountNodes() int {
	n := 1
	for _, c := range nd.Children {
		n += c.CountNodes()
	}
	return n
}

// Walk visits every node of the subtree in pre-order.
func (nd *Node) Walk(fn func(*Node, int)) {
	nd.walk(fn, 0)
}

func (nd *Node) walk(fn func(*Node, int), depth int) {
	fn(nd, depth)
	for _, c := range nd.Children {
		c.walk(fn, depth+1)
	}
}

// Finalize computes cached sizes bottom-up and validates that every leaf
// covers at least one cell. Builders in this package call it automatically;
// callers assembling trees by hand (e.g. HybridTree's kd stage) must call it
// before Measure/Infer.
func (nd *Node) Finalize() error { return nd.finalize() }

// finalize computes cached sizes bottom-up and validates leaf coverage.
func (nd *Node) finalize() error {
	if nd.IsLeaf() {
		if len(nd.Cells) == 0 {
			return fmt.Errorf("tree: leaf covering no cells")
		}
		nd.size = len(nd.Cells)
		nd.lo, nd.hi = nd.Cells[0], nd.Cells[0]
		for _, c := range nd.Cells[1:] {
			if c < nd.lo {
				nd.lo = c
			}
			if c > nd.hi {
				nd.hi = c
			}
		}
		return nil
	}
	nd.size = 0
	for i, c := range nd.Children {
		if err := c.finalize(); err != nil {
			return err
		}
		nd.size += c.size
		if i == 0 {
			nd.lo, nd.hi = c.lo, c.hi
			continue
		}
		if c.lo < nd.lo {
			nd.lo = c.lo
		}
		if c.hi > nd.hi {
			nd.hi = c.hi
		}
	}
	return nil
}

// BuildInterval builds a b-ary tree over the cell interval [0, n). Each level
// splits a node's range into at most b nearly equal contiguous pieces; the
// recursion stops at single-cell leaves. It returns the root.
func BuildInterval(n, b int) (*Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tree: non-positive domain size %d", n)
	}
	if b < 2 {
		return nil, fmt.Errorf("tree: branching factor %d < 2", b)
	}
	root := buildInterval(0, n, b)
	if err := root.finalize(); err != nil {
		return nil, err
	}
	return root, nil
}

func buildInterval(lo, hi, b int) *Node {
	n := hi - lo
	if n == 1 {
		return &Node{Cells: []int{lo}, Var: math.Inf(1)}
	}
	nd := &Node{Var: math.Inf(1)}
	// Split into at most b nearly equal chunks.
	chunks := b
	if n < b {
		chunks = n
	}
	start := lo
	for i := 0; i < chunks; i++ {
		end := lo + (n*(i+1))/chunks
		if end > start {
			nd.Children = append(nd.Children, buildInterval(start, end, b))
			start = end
		}
	}
	return nd
}

// BuildQuad builds a quadtree over an nx x ny grid. Splitting stops when a
// node is a single cell or when maxHeight levels have been created; truncated
// leaves cover their whole rectangle (this is what makes a height-limited
// QuadTree data-dependent and, on large domains, inconsistent — Theorem 5).
func BuildQuad(nx, ny, maxHeight int) (*Node, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("tree: non-positive grid %dx%d", nx, ny)
	}
	if maxHeight < 1 {
		return nil, fmt.Errorf("tree: non-positive height %d", maxHeight)
	}
	root := buildQuad(Rect{0, 0, nx, ny}, nx, maxHeight)
	if err := root.finalize(); err != nil {
		return nil, err
	}
	return root, nil
}

func buildQuad(r Rect, nx, remaining int) *Node {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if remaining == 1 || (w == 1 && h == 1) {
		cells := make([]int, 0, w*h)
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				cells = append(cells, y*nx+x)
			}
		}
		return &Node{Cells: cells, Var: math.Inf(1)}
	}
	nd := &Node{Var: math.Inf(1)}
	mx := r.X0 + (w+1)/2
	my := r.Y0 + (h+1)/2
	quads := []Rect{
		{r.X0, r.Y0, mx, my},
		{mx, r.Y0, r.X1, my},
		{r.X0, my, mx, r.Y1},
		{mx, my, r.X1, r.Y1},
	}
	for _, q := range quads {
		if q.X1 > q.X0 && q.Y1 > q.Y0 {
			nd.Children = append(nd.Children, buildQuad(q, nx, remaining-1))
		}
	}
	if len(nd.Children) == 0 {
		// Degenerate 1xN strips collapse to a leaf.
		return buildQuad(r, nx, 1)
	}
	return nd
}

// BuildQuadRegion builds an unfinalized quadtree over the sub-rectangle r of
// an nx-wide grid with at most maxHeight levels. It exists for callers that
// graft quadtrees under hand-built upper levels (HybridTree); they must call
// Finalize on the assembled root.
func BuildQuadRegion(nx int, r Rect, maxHeight int) *Node {
	if maxHeight < 1 {
		maxHeight = 1
	}
	return buildQuad(r, nx, maxHeight)
}

// BuildGrid builds a hierarchy over an nx x ny grid where every level splits
// each dimension into at most b nearly equal parts (so a node has up to b*b
// children), recursing to single-cell leaves. BuildQuad is the b=2 special
// case with a height limit; Hb's multi-dimensional variant uses this with its
// variance-optimal b.
func BuildGrid(nx, ny, b int) (*Node, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("tree: non-positive grid %dx%d", nx, ny)
	}
	if b < 2 {
		return nil, fmt.Errorf("tree: branching factor %d < 2", b)
	}
	root := buildGrid(Rect{0, 0, nx, ny}, nx, b)
	if err := root.finalize(); err != nil {
		return nil, err
	}
	return root, nil
}

func buildGrid(r Rect, nx, b int) *Node {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w == 1 && h == 1 {
		return &Node{Cells: []int{r.Y0*nx + r.X0}, Var: math.Inf(1)}
	}
	nd := &Node{Var: math.Inf(1)}
	xs := splitPoints(r.X0, r.X1, b)
	ys := splitPoints(r.Y0, r.Y1, b)
	for yi := 0; yi < len(ys)-1; yi++ {
		for xi := 0; xi < len(xs)-1; xi++ {
			q := Rect{xs[xi], ys[yi], xs[xi+1], ys[yi+1]}
			if q.X1 > q.X0 && q.Y1 > q.Y0 {
				nd.Children = append(nd.Children, buildGrid(q, nx, b))
			}
		}
	}
	return nd
}

// splitPoints divides [lo, hi) into at most b nearly equal segments and
// returns the boundaries including both endpoints.
func splitPoints(lo, hi, b int) []int {
	n := hi - lo
	chunks := b
	if n < b {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	pts := []int{lo}
	for i := 1; i <= chunks; i++ {
		p := lo + n*i/chunks
		if p > pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

// TrueCount returns the exact total of the node over data.
func (nd *Node) TrueCount(data []float64) float64 {
	if nd.IsLeaf() {
		var s float64
		for _, c := range nd.Cells {
			s += data[c]
		}
		return s
	}
	var s float64
	for _, c := range nd.Children {
		s += c.TrueCount(data)
	}
	return s
}

// Measure assigns each node at depth d (root depth 0) a Laplace-noised
// measurement with per-level budget epsByLevel[d]; a zero budget leaves the
// level unmeasured. The per-level budgets must sum to at most the meter's
// total budget, since each record contributes to one node per level: the
// nodes of one level partition the domain, so each level is charged as a
// parallel scope under LevelLabel(depth) and the whole tree costs
// sum(epsByLevel).
func (nd *Node) Measure(m *noise.Meter, data []float64, epsByLevel []float64) {
	nd.Walk(func(v *Node, depth int) {
		if depth >= len(epsByLevel) || epsByLevel[depth] <= 0 {
			v.Y, v.Var = 0, math.Inf(1)
			return
		}
		eps := epsByLevel[depth]
		v.Y = v.TrueCount(data) + m.LaplacePar(LevelLabel(depth), 1/eps, eps)
		v.Var = 2 / (eps * eps)
	})
}

// Infer runs the two-pass weighted least-squares consistency inference and
// writes per-cell estimates into a fresh slice of length n. Truncated leaves
// spread their estimate uniformly over their cells (the uniformity
// assumption of Section 3.1).
func (nd *Node) Infer(n int) []float64 {
	out := make([]float64, n)
	nd.InferInto(out)
	return out
}

// InferInto is Infer writing into a caller-provided slice, which is zeroed
// first; hot paths reuse one buffer across trials.
func (nd *Node) InferInto(out []float64) {
	nd.upward()
	for i := range out {
		out[i] = 0
	}
	nd.downward(nd.z, out)
}

// upward computes, for every node, the minimum-variance unbiased combination
// z of its own measurement and the sum of its children's combined estimates.
func (nd *Node) upward() {
	if nd.IsLeaf() {
		nd.z, nd.zvar = nd.Y, nd.Var
		if math.IsInf(nd.Var, 1) {
			// An unmeasured leaf carries no information; estimate 0 with
			// huge (but finite) variance so corrections can flow to it.
			nd.z, nd.zvar = 0, unmeasuredVar
		}
		return
	}
	var childSum, childVar float64
	for _, c := range nd.Children {
		c.upward()
		childSum += c.z
		childVar += c.zvar
	}
	precY := 0.0
	if !math.IsInf(nd.Var, 1) && nd.Var > 0 {
		precY = 1 / nd.Var
	}
	precC := 0.0
	if childVar > 0 {
		precC = 1 / childVar
	}
	switch {
	case precY == 0 && precC == 0:
		nd.z, nd.zvar = childSum, unmeasuredVar
	case precY == 0:
		nd.z, nd.zvar = childSum, childVar
	case precC == 0:
		nd.z, nd.zvar = nd.Y, nd.Var
	default:
		nd.z = (precY*nd.Y + precC*childSum) / (precY + precC)
		nd.zvar = 1 / (precY + precC)
	}
}

// downward propagates the root-consistent totals to the leaves: each node's
// final estimate is its combined estimate plus a share of the parent's
// residual, apportioned by variance (higher-variance children absorb more of
// the correction).
func (nd *Node) downward(target float64, out []float64) {
	if nd.IsLeaf() {
		per := target / float64(len(nd.Cells))
		for _, c := range nd.Cells {
			out[c] += per
		}
		return
	}
	var childSum, varSum float64
	for _, c := range nd.Children {
		childSum += c.z
		varSum += c.zvar
	}
	resid := target - childSum
	for _, c := range nd.Children {
		share := 1.0 / float64(len(nd.Children))
		if varSum > 0 {
			share = c.zvar / varSum
		}
		c.downward(c.z+resid*share, out)
	}
}

// Flatten lays a finalized Node tree out in Flat's arrays. The result has
// no scratch pool; run trials on it with NewScratch.
func Flatten(root *Node) *Flat {
	f := &Flat{n: root.Size(), height: root.Height()}
	nodes := root.CountNodes()
	f.depth = make([]int32, nodes)
	f.kidOff = make([]int32, nodes+1)
	f.celOff = make([]int32, nodes+1)
	f.spanLo = make([]int32, nodes)
	f.spanHi = make([]int32, nodes)
	// Pre-order index assignment: a node's children get consecutive DFS
	// visits, and the kids list records their indices in child order.
	idx := 0
	var rec func(nd *Node, depth int) int32
	rec = func(nd *Node, depth int) int32 {
		i := int32(idx)
		idx++
		f.depth[i] = int32(depth)
		f.spanLo[i], f.spanHi[i] = int32(nd.lo), int32(nd.hi)
		f.kidOff[i] = int32(len(f.kids))
		// Reserve the kid slots now so they stay in child order even though
		// each child's subtree is flattened before the next child's index is
		// known; pre-order makes child c's index computable only after c-1's
		// subtree is done, so fill the reserved slots as we go.
		base := len(f.kids)
		for range nd.Children {
			f.kids = append(f.kids, 0)
		}
		f.celOff[i] = int32(len(f.cells))
		for _, c := range nd.Cells {
			f.cells = append(f.cells, int32(c))
		}
		for ci, c := range nd.Children {
			f.kids[base+ci] = rec(c, depth+1)
		}
		return i
	}
	rec(root, 0)
	// kidOff/celOff are per-node starts; close them into prefix form.
	f.kidOff[nodes] = int32(len(f.kids))
	f.celOff[nodes] = int32(len(f.cells))
	return f
}
