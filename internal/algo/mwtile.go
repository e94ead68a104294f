package algo

// tileSide is the side of mulTileGrid's square tiles: a tile row is one
// 64-byte cache line, the width blockSum and blockScale unroll. Even with
// the general block loops alone, side 8 was the fastest of 4, 8 and 16 in
// BenchmarkPlanExecute/2d-1e7/MWEM* on a 2-vCPU Xeon (27.9, 26.5 and
// 32.2 ms, medians of 7 alternating runs).
const tileSide = 8

// mulTileGrid maintains MWEM's raw multiplicative weights over a 2D grid
// under rectangle multiply and rectangle sum: the 2D counterpart of
// mulSegTree. The grid is cut into tileSide x tileSide tiles, the edge tiles
// clipped to the domain. Each tile keeps a pending multiplier and its current
// raw sum, and its cells are stored in tile-local units, so a cell's raw
// weight is mul[t] * cell[i]. A rectangle then costs O(1) per tile it covers
// whole and touches cells only in the tiles its border cuts: for the
// rectangles MWEM* picks on the sweep's 128x128 grid at scale 1e7, about 50
// whole tiles and 760 cells in 24 cut tiles, in place of about 4,000 cells.
//
// Numerical contract, as for mulSegTree: a whole tile's pending factors are
// combined before they reach its cells, a range sum adds tile sums and
// block sums in a fixed order, and a cut tile's sum moves by the change of
// its covered cells' sum, so values agree with the sequential in-place loop
// only to ~1e-12 relative (the MWEM golden tests pin 1e-9). Flatten folds
// the multipliers into the cells and recomputes every tile sum from its
// cells, which clears the drift of those sum updates. All operations are
// deterministic and allocation-free after construction.
type mulTileGrid struct {
	ny, nx int       // grid rows and columns
	tilesX int       // tiles per tile row
	cell   []float64 // row-major cells in tile-local units
	mul    []float64 // per-tile pending multiplier
	sum    []float64 // per-tile raw sum: mul[t] times the sum of its cells

	// The last CollectRect's rectangle, so ApplyCollected multiplies it
	// without walking its tiles again: the block of tiles it covers whole,
	// [wy0, wy1) x [wx0, wx1), and the ring of tiles its border cuts.
	wy0, wy1, wx0, wx1 int
	cuts               []cutBlock
}

// cutBlock is the part [rlo, rhi) x [clo, chi) of tile t that a rectangle
// covers, and the sum of those cells in tile-local units.
type cutBlock struct {
	t, rlo, rhi, clo, chi int
	part                  float64
}

func newMulTileGrid(ny, nx int) *mulTileGrid {
	tilesX := (nx + tileSide - 1) / tileSide
	tilesY := (ny + tileSide - 1) / tileSide
	return &mulTileGrid{
		ny: ny, nx: nx, tilesX: tilesX,
		cell: make([]float64, ny*nx),
		mul:  make([]float64, tilesX*tilesY), sum: make([]float64, tilesX*tilesY),
		// A rectangle cuts at most its first and last tile rows whole and
		// two tiles of every row between them.
		cuts: make([]cutBlock, 0, 2*tilesX+2*tilesY),
	}
}

// tileSpan returns the part [lo, hi) of tile k's extent on an axis of n
// cells that the half-open range [a, b) covers.
func tileSpan(k, a, b, n int) (lo, hi int) {
	return max(a, k*tileSide), min(b, k*tileSide+tileSide, n)
}

// wholeTiles returns the tiles [lo, hi) whose whole extent on an axis of n
// cells lies inside the half-open range [a, b); the last tile may be
// clipped.
func wholeTiles(a, b, n int) (lo, hi int) {
	lo = (a + tileSide - 1) / tileSide
	if b == n {
		hi = (n + tileSide - 1) / tileSide
	} else {
		hi = b / tileSide
	}
	return lo, max(lo, hi)
}

// fill sets every cell to v and clears every pending multiplier.
func (g *mulTileGrid) fill(v float64) {
	for i := range g.cell {
		g.cell[i] = v
	}
	for t := range g.mul {
		g.mul[t] = 1
	}
	g.Flatten(1)
}

// CollectRect returns the raw sum of the half-open rectangle [y0, y1) x
// [x0, x1) and records it for ApplyCollected. MWEM's update step is this
// pair: read the rectangle's sum, derive the factor, apply it.
func (g *mulTileGrid) CollectRect(y0, x0, y1, x1 int) float64 {
	g.wy0, g.wy1 = wholeTiles(y0, y1, g.ny)
	g.wx0, g.wx1 = wholeTiles(x0, x1, g.nx)
	g.cuts = g.cuts[:0]
	tx0, tx1 := x0/tileSide, (x1-1)/tileSide
	var s float64
	for ty := y0 / tileSide; ty*tileSide < y1; ty++ {
		rlo, rhi := tileSpan(ty, y0, y1, g.ny)
		if ty < g.wy0 || ty >= g.wy1 || g.wx0 == g.wx1 {
			// A row the rectangle cuts, or one with no whole tile: every
			// tile the rectangle reaches is cut.
			for tx := tx0; tx <= tx1; tx++ {
				s += g.collectCut(ty, tx, rlo, rhi, x0, x1)
			}
			continue
		}
		row := ty * g.tilesX
		for _, v := range g.sum[row+g.wx0 : row+g.wx1] {
			s += v
		}
		if tx0 < g.wx0 {
			s += g.collectCut(ty, tx0, rlo, rhi, x0, x1)
		}
		if tx1 >= g.wx1 {
			s += g.collectCut(ty, tx1, rlo, rhi, x0, x1)
		}
	}
	return s
}

// collectCut sums the cells of tile (ty, tx) inside rows [rlo, rhi) and the
// rectangle's columns [x0, x1), records them as a cut and returns their raw
// sum. A tile whose pending multiplier has left [1e-12, 1e12] is flattened
// first, as mulSegTree pushes a pending factor down before a partial
// update: whole-tile and cut factors of opposite signs would otherwise
// drive the multiplier and the cells apart while the raw total, which
// update's overflow guard watches, stays put. The guard holds the raw total
// under 1e280 before each step and a step's factor is at most e^30, so a
// cut cell, its raw weight over a multiplier of at least 1e-12, stays under
// 1.1e305.
func (g *mulTileGrid) collectCut(ty, tx, rlo, rhi, x0, x1 int) float64 {
	clo, chi := tileSpan(tx, x0, x1, g.nx)
	t := ty*g.tilesX + tx
	if m := g.mul[t]; m < 1e-12 || m > 1e12 {
		g.flattenTile(ty, tx, 1)
	}
	p := g.blockSum(rlo, rhi, clo, chi)
	g.cuts = append(g.cuts, cutBlock{t, rlo, rhi, clo, chi, p})
	return g.mul[t] * p
}

// ApplyCollected multiplies the rectangle of the last CollectRect by f: a
// whole tile's multiplier and sum absorb f, and a cut tile multiplies only
// its covered cells and moves its sum by the change of their raw sum.
func (g *mulTileGrid) ApplyCollected(f float64) {
	for ty := g.wy0; ty < g.wy1; ty++ {
		lo, hi := ty*g.tilesX+g.wx0, ty*g.tilesX+g.wx1
		mul, sum := g.mul[lo:hi], g.sum[lo:hi]
		for i := range mul {
			mul[i] *= f
			sum[i] *= f
		}
	}
	for _, c := range g.cuts {
		g.blockScale(c.rlo, c.rhi, c.clo, c.chi, f)
		g.sum[c.t] += g.mul[c.t] * c.part * (f - 1)
	}
}

// Flatten multiplies every tile's cells by f times its pending multiplier,
// resets the multipliers to 1, recomputes each tile's sum from its cells
// and returns the total. Afterwards g.cell holds the raw weights scaled by
// f.
func (g *mulTileGrid) Flatten(f float64) float64 {
	var total float64
	for ty := 0; ty*tileSide < g.ny; ty++ {
		for tx := 0; tx*tileSide < g.nx; tx++ {
			total += g.flattenTile(ty, tx, f)
		}
	}
	return total
}

// flattenTile multiplies tile (ty, tx)'s cells by f times its pending
// multiplier, resets the multiplier to 1 and returns the tile's sum,
// recomputed from its cells.
func (g *mulTileGrid) flattenTile(ty, tx int, f float64) float64 {
	rlo, rhi := tileSpan(ty, 0, g.ny, g.ny)
	clo, chi := tileSpan(tx, 0, g.nx, g.nx)
	t := ty*g.tilesX + tx
	g.blockScale(rlo, rhi, clo, chi, g.mul[t]*f)
	s := g.blockSum(rlo, rhi, clo, chi)
	g.mul[t], g.sum[t] = 1, s
	return s
}

// blockSum returns the sum of the cells [rlo, rhi) x [clo, chi), a block
// inside one tile. A block eight cells wide or eight rows high, the usual
// shape of a cut tile, is summed a row or a column at a time as a pairwise
// tree. These two shapes here and in blockScale earn their place: in ten
// traced sweep pairs (2-vCPU Xeon) they cut MWEM* 2D's time per Execute to
// 0.68 of the general loop's alone, ahead in all ten.
func (g *mulTileGrid) blockSum(rlo, rhi, clo, chi int) float64 {
	nx, cell := g.nx, g.cell
	var p float64
	switch {
	case chi-clo == 8:
		for i := rlo*nx + clo; i < rhi*nx; i += nx {
			r := (*[8]float64)(cell[i : i+8])
			p += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
		}
	case rhi-rlo == 8:
		c := cell[rlo*nx : rhi*nx]
		for x := clo; x < chi; x++ {
			_ = c[x+7*nx]
			p += ((c[x] + c[x+nx]) + (c[x+2*nx] + c[x+3*nx])) + ((c[x+4*nx] + c[x+5*nx]) + (c[x+6*nx] + c[x+7*nx]))
		}
	default:
		w := chi - clo
		for i := rlo*nx + clo; i < rhi*nx; i += nx {
			for _, v := range cell[i : i+w] {
				p += v
			}
		}
	}
	return p
}

// blockScale multiplies the cells [rlo, rhi) x [clo, chi), a block inside
// one tile, by f, in the same shapes as blockSum.
func (g *mulTileGrid) blockScale(rlo, rhi, clo, chi int, f float64) {
	nx, cell := g.nx, g.cell
	switch {
	case chi-clo == 8:
		for i := rlo*nx + clo; i < rhi*nx; i += nx {
			r := (*[8]float64)(cell[i : i+8])
			r[0], r[1], r[2], r[3] = r[0]*f, r[1]*f, r[2]*f, r[3]*f
			r[4], r[5], r[6], r[7] = r[4]*f, r[5]*f, r[6]*f, r[7]*f
		}
	case rhi-rlo == 8:
		c := cell[rlo*nx : rhi*nx]
		for x := clo; x < chi; x++ {
			_ = c[x+7*nx]
			c[x], c[x+nx], c[x+2*nx], c[x+3*nx] = c[x]*f, c[x+nx]*f, c[x+2*nx]*f, c[x+3*nx]*f
			c[x+4*nx], c[x+5*nx], c[x+6*nx], c[x+7*nx] = c[x+4*nx]*f, c[x+5*nx]*f, c[x+6*nx]*f, c[x+7*nx]*f
		}
	default:
		w := chi - clo
		for i := rlo*nx + clo; i < rhi*nx; i += nx {
			row := cell[i : i+w]
			for j := range row {
				row[j] *= f
			}
		}
	}
}
