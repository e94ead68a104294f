package transform

// The inverses below exist only as references for the round-trip tests: the
// mechanisms never invert a Hilbert linearization, never ask a Haar
// coefficient's level, and invert the FFT and the Haar transform into
// caller-provided buffers (IFFTInto, HaarInverseInto).

// IFFT computes the inverse discrete Fourier transform of x (normalized by
// 1/n so that IFFT(FFT(x)) == x).
func IFFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	return IFFTInto(make([]complex128, len(x)), x)
}

// HaarInverse inverts HaarForward.
func HaarInverse(c []float64) ([]float64, error) {
	n := len(c)
	dst := make([]float64, n)
	if err := HaarInverseInto(dst, make([]float64, n), c); err != nil {
		return nil, err
	}
	return dst, nil
}

// HaarLevel returns the tree level of coefficient index i in the layout
// produced by HaarForward: level 0 is the average coefficient, level 1 the
// root detail coefficient, level l the 2^(l-1) coefficients at depth l.
func HaarLevel(i int) int {
	if i == 0 {
		return 0
	}
	level := 0
	for i > 0 {
		i >>= 1
		level++
	}
	return level
}

// HilbertXY2D converts (x, y) coordinates on a 2^k x 2^k grid into the
// distance along the Hilbert curve of order k.
func HilbertXY2D(order uint, x, y int) int {
	d := 0
	for s := 1 << (order - 1); s > 0; s >>= 1 {
		var rx, ry int
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// HilbertDelinearize inverts HilbertLinearize given the permutation it
// produced: result[perm[d]] = lin[d].
func HilbertDelinearize(lin []float64, perm []int) []float64 {
	out := make([]float64, len(lin))
	for d, src := range perm {
		out[src] = lin[d]
	}
	return out
}
