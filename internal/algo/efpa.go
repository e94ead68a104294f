package algo

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/transform"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// EFPA is the enhanced Fourier perturbation algorithm of Acs, Castelluccia
// and Chen (ICDM 2012). It computes the orthonormal DFT of the 1D data
// vector, chooses how many leading coefficients k to retain via the
// exponential mechanism (scoring the total of expected perturbation error
// and truncation error), perturbs the retained coefficients with the Laplace
// mechanism, and reconstructs by the inverse transform. Half the budget
// selects k, half measures the coefficients.
//
// Under the orthonormal DFT (scaled by 1/sqrt(n)), adding one record changes
// each coefficient by 1/sqrt(n) in magnitude, so the L1 sensitivity of the
// 2k real components of the retained coefficients is at most 2k/sqrt(n), and
// by Parseval the truncation-error score has per-record sensitivity at most
// 1 — which is how the mechanism's noise is calibrated.
type EFPA struct{}

func init() { Register("EFPA", func() Algorithm { return EFPA{} }) }

// Name implements Algorithm.
func (EFPA) Name() string { return "EFPA" }

// Supports implements Algorithm; EFPA is 1D only (Table 1).
func (EFPA) Supports(k int) bool { return k == 1 }

// DataDependent implements Algorithm.
func (EFPA) DataDependent() bool { return true }

// Run implements Algorithm.
func (e EFPA) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(e, x, w, eps, rng)
}

// efpaPlan caches the deterministic per-cell work — the orthonormal spectrum
// of the data and the full score table of the k-selection — so a trial is
// one exponential-mechanism draw plus 2k Laplace draws and an inverse FFT.
type efpaPlan struct {
	F          []complex128 // orthonormal DFT of the data (read-only)
	scores     []float64    // score table for the k selection (read-only)
	n          int
	epsK, epsC float64
	bufs       *sync.Pool // *efpaScratch
}

// efpaScratch holds one trial's exponential-mechanism weights, retained
// coefficient buffer, and inverse-transform output.
type efpaScratch struct {
	weights []float64
	kept    []complex128
	inv     []complex128
}

// Plan implements Algorithm.
func (EFPA) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 1 {
		return nil, fmt.Errorf("efpa: 1D only, got %dD", x.K())
	}
	n := x.N()
	epsK := eps / 2
	epsC := eps / 2

	// Orthonormal DFT.
	F := transform.FFTReal(x.Data)
	scale := 1 / math.Sqrt(float64(n))
	for i := range F {
		F[i] *= complex(scale, 0)
	}

	// Tail energy (L2^2 of dropped coefficients) for every k, computed as a
	// suffix sum of squared magnitudes.
	energy := make([]float64, n+1) // energy[k] = sum_{j>=k} |F_j|^2
	for k := n - 1; k >= 0; k-- {
		m := cmplx.Abs(F[k])
		energy[k] = energy[k+1] + m*m
	}

	// Score(k) = -(truncation RMS + expected Laplace noise RMS); per-record
	// sensitivity of the truncation term is 1 by Parseval.
	scores := make([]float64, n)
	for k := 1; k <= n; k++ {
		trunc := math.Sqrt(energy[k])
		lapScale := 2 * float64(k) / (math.Sqrt(float64(n)) * epsC)
		// RMS of 2k Laplace components with common scale b is b*sqrt(2*2k).
		noiseErr := lapScale * math.Sqrt(4*float64(k))
		scores[k-1] = -(trunc + noiseErr)
	}
	p := &efpaPlan{F: F, scores: scores, n: n, epsK: epsK, epsC: epsC}
	p.bufs = scratchPool(scratchKey{mech: "EFPA", sizes: [3]int{n}}, func() any {
		return &efpaScratch{
			weights: make([]float64, n),
			kept:    make([]complex128, n),
			inv:     make([]complex128, n),
		}
	})
	return p, nil
}

//dp:hotpath
func (p *efpaPlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*efpaScratch)
	defer p.bufs.Put(sc)
	k := 1 + m.ExpMechBuf("k", p.scores, 1, p.epsK, sc.weights)
	kept := efpaPerturbInto(sc.kept, p.F, p.n, k, p.epsC, m)
	inv := transform.IFFTInto(sc.inv, kept)
	invScale := math.Sqrt(float64(p.n))
	for i := 0; i < p.n; i++ {
		out[i] = real(inv[i]) * invScale
	}
	return m.Err()
}

// CompositionPlan implements Planner: half the budget selects k via the
// exponential mechanism, half perturbs the retained coefficients (one vector
// query of L1 sensitivity 2k/sqrt(n), charged as a single scope).
func (EFPA) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "k", Kind: noise.Sequential},
		{Label: "coeffs", Kind: noise.Parallel},
	}
}

// efpaPerturbInto perturbs the k retained orthonormal-DFT coefficients of a
// real-valued input into kept, a caller-provided (possibly dirty) buffer of
// length n that is zeroed first so truncated slots stay truncated across
// pooled reuses, and restores Hermitian symmetry, so the inverse transform
// is real-valued for EVERY k:
//
//   - the DC bin (and, for even n, the Nyquist bin) of a real signal is
//     real, so only the real part keeps its noise;
//   - for every retained pair (j, n-j) the mirror slot is conj(kept[j]),
//     even when k > n/2 and the mirror slot drew its own noise (that draw is
//     discarded — post-processing — so the noise stream is unchanged).
//
// Without the overwrite, a k past n/2 left kept[j] and kept[n-j]
// independently perturbed and the reconstruction picked up spurious
// imaginary mass that taking real() silently folded away.
func efpaPerturbInto(kept []complex128, F []complex128, n, k int, epsC float64, m *noise.Meter) []complex128 {
	for i := range kept {
		kept[i] = 0
	}
	lapScale := 2 * float64(k) / (math.Sqrt(float64(n)) * epsC)
	for j := 0; j < k; j++ {
		kept[j] = F[j] + complex(m.LaplacePar("coeffs", lapScale, epsC), m.LaplacePar("coeffs", lapScale, epsC))
	}
	kept[0] = complex(real(kept[0]), 0)
	if n%2 == 0 && n/2 < k {
		kept[n/2] = complex(real(kept[n/2]), 0)
	}
	for j := 1; 2*j < n; j++ {
		if j < k {
			kept[n-j] = cmplx.Conj(kept[j])
		}
	}
	return kept
}
