package transform

import (
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x. Power-of-two lengths use
// the iterative radix-2 Cooley-Tukey algorithm; other lengths fall back to
// Bluestein's chirp-z algorithm so EFPA works on arbitrary domain sizes.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		fftRadix2(out, false)
		return out
	}
	return bluestein(x, false)
}

// IFFTInto computes the inverse discrete Fourier transform of x (normalized
// by 1/n, so it inverts FFT) into a caller-provided destination (len(x)), so
// per-trial hot paths (EFPA's reconstruction) invert without allocating on
// power-of-two lengths; other lengths fall back to Bluestein's internal
// buffers. dst must not alias x.
func IFFTInto(dst, x []complex128) []complex128 {
	n := len(x)
	if len(dst) != n {
		panic("transform: IFFTInto length mismatch")
	}
	if n == 0 {
		return dst
	}
	if n&(n-1) == 0 {
		copy(dst, x)
		fftRadix2(dst, true)
	} else {
		copy(dst, bluestein(x, true))
	}
	inv := complex(1/float64(n), 0)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// FFTReal transforms a real vector.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// fftRadix2 runs an in-place iterative radix-2 FFT. inverse selects the
// conjugated twiddle factors (no normalization).
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * w
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// bluestein implements the chirp-z transform, expressing a DFT of arbitrary
// length as a convolution that is evaluated with power-of-two FFTs.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*pi*k^2/n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n; use modular arithmetic on 2n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, true)
	out := make([]complex128, n)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}
