package algo

// mulSegTree maintains MWEM's raw multiplicative-weight vector under
// O(log n) range-multiply and range-sum, with lazy multiplier propagation.
// The history replay applies one multiplicative step per measurement per
// sweep; on the flat vector that costs O(range) per step, which makes the
// replay the single hottest loop of the whole benchmark sweep at large round
// counts. The tree drops it to O(log n) per step, with one O(n)
// materialization per selection round (the exponential mechanism needs the
// whole vector).
//
// Lazy propagation reassociates the per-cell multiplier products (a cell's
// pending factors are combined before they reach it), so values agree with
// the sequential in-place loop only to ~1e-12 relative — the same class of
// exact-algebra rewrite as the deferred renormalization scalar, covered by
// the MWEM golden tests' 1e-9 pin against the seed implementation. All
// operations are deterministic and allocation-free after construction.
type mulSegTree struct {
	n, m int       // n cells, m = power-of-two leaf count (>= 2)
	sum  []float64 // 1-indexed segment sums, fully updated at each node
	lazy []float64 // pending multiplier for the node's children (internal nodes)

	// dirt[v] marks internal nodes whose subtree may hold a pending
	// multiplier (lazy != 1 at the node or any descendant). Materialization
	// walks only dirty subtrees: between selection rounds MWEM's updates
	// touch O(history * log n) nodes, so the full-tree push loop — formerly
	// the dominant cost of reading the leaves — shrinks to the touched paths.
	// Every write that makes a lazy non-trivial marks the node and (via the
	// descent paths) its ancestors, so a clean bit proves the subtree's
	// leaves are final. Skipped pushes are all f == 1 no-ops, so the
	// materialized values are bit-identical to the full loop's.
	dirt []bool

	// Scratch for the fused sum-then-multiply descent: the canonical cover
	// nodes of the queried range and the partially-covered ancestors.
	cover []int32
	path  []int32
}

func newMulSegTree(n int) *mulSegTree {
	m := 2
	for m < n {
		m <<= 1
	}
	depth := 1
	for s := m; s > 1; s >>= 1 {
		depth++
	}
	t := &mulSegTree{
		n: n, m: m,
		sum: make([]float64, 2*m), lazy: make([]float64, 2*m),
		dirt:  make([]bool, m),
		cover: make([]int32, 0, 2*depth), path: make([]int32, 0, 2*depth),
	}
	// Establish the clean-tree invariant (all lazy 1, all dirt false) that
	// fill relies on to skip its clearing passes.
	for i := range t.lazy {
		t.lazy[i] = 1
	}
	return t
}

// fill initializes every cell of [0, n) to v and clears all pending lazies.
func (t *mulSegTree) fill(v float64) {
	for i := 0; i < t.n; i++ {
		t.sum[t.m+i] = v
	}
	for i := t.n; i < t.m; i++ {
		t.sum[t.m+i] = 0
	}
	for i := t.m - 1; i >= 1; i-- {
		t.sum[i] = t.sum[2*i] + t.sum[2*i+1]
	}
	// dirt[1] clear proves every internal lazy is already 1 (the invariant
	// pushDirtyTree restores), so the steady-state trial reset — fill after
	// a full materialization — skips both clearing passes.
	if t.dirt[1] {
		for i := range t.lazy {
			t.lazy[i] = 1
		}
		for i := range t.dirt {
			t.dirt[i] = false
		}
	}
}

// Total returns the current sum over all cells.
func (t *mulSegTree) Total() float64 { return t.sum[1] }

// push applies a node's pending multiplier to its children.
func (t *mulSegTree) push(v int) {
	f := t.lazy[v]
	if f == 1 {
		return
	}
	l, r := 2*v, 2*v+1
	t.sum[l] *= f
	t.sum[r] *= f
	if l < t.m {
		t.lazy[l] *= f
		t.lazy[r] *= f
		t.dirt[l], t.dirt[r] = true, true
	}
	t.lazy[v] = 1
}

// MulRange multiplies cells [lo, hi) by f.
func (t *mulSegTree) MulRange(lo, hi int, f float64) { t.mul(1, 0, t.m, lo, hi, f) }

func (t *mulSegTree) mul(v, l, r, lo, hi int, f float64) {
	if hi <= l || r <= lo {
		return
	}
	if lo <= l && r <= hi {
		t.sum[v] *= f
		if v < t.m {
			t.lazy[v] *= f
			t.dirt[v] = true
		}
		return
	}
	t.push(v)
	t.dirt[v] = true
	mid := (l + r) / 2
	t.mul(2*v, l, mid, lo, hi, f)
	t.mul(2*v+1, mid, r, lo, hi, f)
	t.sum[v] = t.sum[2*v] + t.sum[2*v+1]
}

// CollectRange returns the sum of cells [lo, hi) while recording the range's
// canonical cover nodes and their partially-covered ancestors, so
// ApplyCollected can multiply the same range without a second descent.
// MWEM's update step is exactly this pair: read the range sum, derive the
// multiplicative factor, apply it.
func (t *mulSegTree) CollectRange(lo, hi int) float64 {
	t.cover = t.cover[:0]
	t.path = t.path[:0]
	return t.collect(1, 0, t.m, lo, hi)
}

func (t *mulSegTree) collect(v, l, r, lo, hi int) float64 {
	if lo == 0 {
		return t.collectPrefix(hi)
	}
	return t.collectAny(v, l, r, lo, hi)
}

// collectPrefix is the loop form of collect for [0, hi) — the only range
// shape the Prefix workload produces, and therefore the replay hot path of
// the 1D sweep. Walking the root-to-boundary path directly (covering whole
// left children along it) visits the same nodes in the same order as the
// recursion; the cover sums are then added innermost-first, reproducing the
// recursion's right-nested addition order bit for bit.
func (t *mulSegTree) collectPrefix(hi int) float64 {
	if hi >= t.m {
		t.cover = append(t.cover, 1)
		return t.sum[1]
	}
	v, l, r := 1, 0, t.m
	for {
		t.push(v)
		t.path = append(t.path, int32(v))
		mid := (l + r) / 2
		if hi < mid {
			v, r = 2*v, mid
			continue
		}
		t.cover = append(t.cover, int32(2*v))
		if hi == mid {
			break
		}
		v, l = 2*v+1, mid
	}
	var s float64
	for i := len(t.cover) - 1; i >= 0; i-- {
		s = t.sum[t.cover[i]] + s
	}
	return s
}

func (t *mulSegTree) collectAny(v, l, r, lo, hi int) float64 {
	if hi <= l || r <= lo {
		return 0
	}
	if lo <= l && r <= hi {
		t.cover = append(t.cover, int32(v))
		return t.sum[v]
	}
	t.push(v)
	t.path = append(t.path, int32(v))
	mid := (l + r) / 2
	return t.collectAny(2*v, l, mid, lo, hi) + t.collectAny(2*v+1, mid, r, lo, hi)
}

// ApplyCollected multiplies the range of the last CollectRange by f: each
// cover node's sum (and pending child multiplier) absorbs f, and ancestor
// sums are pulled up in reverse pre-order — the identical arithmetic MulRange
// performs, minus the repeated traversal.
func (t *mulSegTree) ApplyCollected(f float64) {
	for _, v := range t.cover {
		t.sum[v] *= f
		if int(v) < t.m {
			t.lazy[v] *= f
			t.dirt[v] = true
		}
	}
	for i := len(t.path) - 1; i >= 0; i-- {
		v := t.path[i]
		t.sum[v] = t.sum[2*v] + t.sum[2*v+1]
		t.dirt[v] = true
	}
}

// pushDirtyTree pushes every pending multiplier in v's subtree down to the
// leaves, descending only through dirty nodes; clean subtrees are proven
// lazy-free, so skipping them changes nothing. Each dirty node performs the
// identical parent-before-child arithmetic as the full-tree push loop.
func (t *mulSegTree) pushDirtyTree(v int) {
	if !t.dirt[v] {
		return
	}
	t.dirt[v] = false
	if f := t.lazy[v]; f != 1 {
		l, r := 2*v, 2*v+1
		t.sum[l] *= f
		t.sum[r] *= f
		if l < t.m {
			t.lazy[l] *= f
			t.lazy[r] *= f
			t.dirt[l], t.dirt[r] = true, true
		}
		t.lazy[v] = 1
	}
	if 2*v < t.m {
		t.pushDirtyTree(2 * v)
		t.pushDirtyTree(2*v + 1)
	}
}

// MaterializeInto pushes every pending multiplier down and copies the leaf
// values of [0, n) into out. The tree remains valid and unchanged in value.
func (t *mulSegTree) MaterializeInto(out []float64) {
	t.pushDirtyTree(1)
	copy(out, t.sum[t.m:t.m+t.n])
}

// Leaves pushes every pending multiplier down and returns the live leaf
// slice [0, n) — MaterializeInto minus the copy, for callers that only read
// (MWEM's fused fast selection streams the leaves directly). The slice
// aliases the tree and is invalidated by the next mutating call.
func (t *mulSegTree) Leaves() []float64 {
	t.pushDirtyTree(1)
	return t.sum[t.m : t.m+t.n]
}
