// Package transform implements the signal transforms the algorithm suite
// depends on: the discrete Haar wavelet used by Privelet, the discrete
// Fourier transform used by EFPA, and the Hilbert space-filling curve used by
// DAWA and GreedyH to linearize 2D domains.
package transform

import "fmt"

// HaarForward computes the unnormalized discrete Haar wavelet transform of x
// in the form Privelet uses: coefficient 0 is the overall average, and the
// coefficient for an internal node of the dyadic tree is
// (avg(left half) - avg(right half)) / 2.
// len(x) must be a power of two. The input is not modified.
func HaarForward(x []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	// avg[i] holds running averages of blocks at the current level.
	avg := append([]float64(nil), x...)
	coeffs := make([]float64, n)
	level := n
	for level > 1 {
		half := level / 2
		next := make([]float64, half)
		detail := make([]float64, half)
		for i := 0; i < half; i++ {
			a, b := avg[2*i], avg[2*i+1]
			next[i] = (a + b) / 2
			detail[i] = (a - b) / 2
		}
		// Coefficients for this level occupy positions [half, level).
		copy(coeffs[half:level], detail)
		avg = next
		level = half
	}
	coeffs[0] = avg[0]
	return coeffs, nil
}

// HaarInverseInto inverts HaarForward into dst using tmp as ping-pong
// scratch (both len(c)), without allocating. dst and tmp must not alias c or
// each other.
func HaarInverseInto(dst, tmp, c []float64) error {
	n := len(c)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	if len(dst) != n || len(tmp) != n {
		return fmt.Errorf("transform: Haar inverse buffer length mismatch")
	}
	cur, next := dst, tmp
	cur[0] = c[0]
	for level := 1; level < n; level *= 2 {
		detail := c[level : 2*level]
		for i := 0; i < level; i++ {
			next[2*i] = cur[i] + detail[i]
			next[2*i+1] = cur[i] - detail[i]
		}
		cur, next = next, cur
	}
	if &cur[0] != &dst[0] {
		copy(dst, cur)
	}
	return nil
}
