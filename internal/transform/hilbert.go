package transform

import "fmt"

// HilbertD2XY converts a distance d along the Hilbert curve of order k (a
// 2^k x 2^k grid) into (x, y) coordinates, using the classic rotation-based
// construction.
func HilbertD2XY(order uint, d int) (x, y int) {
	t := d
	for s := 1; s < 1<<order; s <<= 1 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

func hilbertRot(s, x, y, rx, ry int) (int, int) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// HilbertOrder returns k such that the grid is 2^k x 2^k, or an error if side
// is not a power of two.
func HilbertOrder(side int) (uint, error) {
	if side <= 0 || side&(side-1) != 0 {
		return 0, fmt.Errorf("transform: Hilbert side %d is not a power of two", side)
	}
	var k uint
	for 1<<k < side {
		k++
	}
	return k, nil
}

// HilbertLinearize maps a row-major 2D data slice on a side x side grid
// (side a power of two) onto a 1D slice ordered by Hilbert distance, so
// spatially adjacent cells tend to stay adjacent. The returned permutation
// perm satisfies out[d] = data[perm[d]].
func HilbertLinearize(data []float64, side int) (out []float64, perm []int, err error) {
	order, err := HilbertOrder(side)
	if err != nil {
		return nil, nil, err
	}
	if len(data) != side*side {
		return nil, nil, fmt.Errorf("transform: data length %d does not match %dx%d grid", len(data), side, side)
	}
	out = make([]float64, len(data))
	perm = make([]int, len(data))
	for d := range data {
		x, y := HilbertD2XY(order, d)
		src := y*side + x
		out[d] = data[src]
		perm[d] = src
	}
	return out, perm, nil
}
