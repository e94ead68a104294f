// Package dataset provides the benchmark's data inputs: a registry of 27
// datasets mirroring Table 2 of the paper, and the DPBench data generator G
// (Section 5.1) that resamples a source shape at any requested scale and
// domain size.
//
// Substitution note (see DESIGN.md): the paper's datasets derive from real
// sources (US Census, Kaggle auctions, Maryland salaries, Lending Club,
// taxi traces, Gowalla check-ins, the International Stroke Trial). Those raw
// files are not redistributable, and DPBench itself only consumes each
// dataset through its shape vector p. This package therefore synthesizes,
// deterministically per dataset, a shape with the published characteristics:
// matching fraction of zero cells at the maximum domain size (Table 2) and a
// qualitatively faithful distribution family (heavy-tailed counts, salary
// spikes, dense bid streams, sparse spatial scatter). Every downstream code
// path — generation, coarsening, algorithms, measurement — is identical to
// operating on the real data.
package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/vec"
)

// MaxDomain1D is the largest 1D domain size used by the benchmark.
const MaxDomain1D = 4096

// MaxDomain2D is the side of the largest 2D domain (256 x 256).
const MaxDomain2D = 256

// Dataset describes one source dataset from Table 2.
type Dataset struct {
	// Name is the paper's dataset identifier, e.g. "ADULT" or "BJ-CABS-S".
	Name string
	// Dim is 1 or 2.
	Dim int
	// OriginalScale is the source dataset's tuple count from Table 2.
	OriginalScale float64
	// ZeroFrac is the fraction of zero cells at the maximum domain size.
	ZeroFrac float64
	// New marks datasets introduced by the DPBench paper.
	New bool

	family shapeFamily
}

type shapeFamily struct {
	kind   string  // "powerlaw", "gaussmix", "spikes", "dense", "geo", "grid2d"
	param  float64 // family-specific skew parameter
	param2 float64
}

// registry1D mirrors the 1D half of Table 2.
var registry1D = []Dataset{
	{Name: "ADULT", Dim: 1, OriginalScale: 32558, ZeroFrac: 0.9780, family: shapeFamily{"powerlaw", 2.2, 0}},
	{Name: "HEPPH", Dim: 1, OriginalScale: 347414, ZeroFrac: 0.2117, family: shapeFamily{"gaussmix", 4, 0.25}},
	{Name: "INCOME", Dim: 1, OriginalScale: 20787122, ZeroFrac: 0.4497, family: shapeFamily{"powerlaw", 1.4, 0}},
	{Name: "MEDCOST", Dim: 1, OriginalScale: 9415, ZeroFrac: 0.7480, family: shapeFamily{"powerlaw", 1.8, 0}},
	{Name: "TRACE", Dim: 1, OriginalScale: 25714, ZeroFrac: 0.9661, family: shapeFamily{"spikes", 12, 3.0}},
	{Name: "PATENT", Dim: 1, OriginalScale: 27948226, ZeroFrac: 0.0620, family: shapeFamily{"gaussmix", 6, 0.45}},
	{Name: "SEARCH", Dim: 1, OriginalScale: 335889, ZeroFrac: 0.5103, family: shapeFamily{"powerlaw", 1.6, 0}},
	{Name: "BIDS-FJ", Dim: 1, OriginalScale: 1901799, ZeroFrac: 0, New: true, family: shapeFamily{"dense", 1.0, 0}},
	{Name: "BIDS-FM", Dim: 1, OriginalScale: 2126344, ZeroFrac: 0, New: true, family: shapeFamily{"dense", 1.4, 0}},
	{Name: "BIDS-ALL", Dim: 1, OriginalScale: 7655502, ZeroFrac: 0, New: true, family: shapeFamily{"dense", 0.7, 0}},
	{Name: "MD-SAL", Dim: 1, OriginalScale: 135727, ZeroFrac: 0.8312, New: true, family: shapeFamily{"spikes", 40, 1.6}},
	{Name: "MD-SAL-FA", Dim: 1, OriginalScale: 100534, ZeroFrac: 0.8317, New: true, family: shapeFamily{"spikes", 30, 1.8}},
	{Name: "LC-REQ-F1", Dim: 1, OriginalScale: 3737472, ZeroFrac: 0.6157, New: true, family: shapeFamily{"spikes", 80, 1.2}},
	{Name: "LC-REQ-F2", Dim: 1, OriginalScale: 198045, ZeroFrac: 0.6769, New: true, family: shapeFamily{"spikes", 60, 1.4}},
	{Name: "LC-REQ-ALL", Dim: 1, OriginalScale: 3999425, ZeroFrac: 0.6015, New: true, family: shapeFamily{"spikes", 90, 1.1}},
	{Name: "LC-DTIR-F1", Dim: 1, OriginalScale: 3336740, ZeroFrac: 0, New: true, family: shapeFamily{"dense", 1.8, 0}},
	{Name: "LC-DTIR-F2", Dim: 1, OriginalScale: 189827, ZeroFrac: 0.1191, New: true, family: shapeFamily{"gaussmix", 3, 0.3}},
	{Name: "LC-DTIR-ALL", Dim: 1, OriginalScale: 3589119, ZeroFrac: 0, New: true, family: shapeFamily{"dense", 1.6, 0}},
}

// registry2D mirrors the 2D half of Table 2.
var registry2D = []Dataset{
	{Name: "BJ-CABS-S", Dim: 2, OriginalScale: 4268780, ZeroFrac: 0.7817, family: shapeFamily{"geo", 8, 10}},
	{Name: "BJ-CABS-E", Dim: 2, OriginalScale: 4268780, ZeroFrac: 0.7683, family: shapeFamily{"geo", 9, 11}},
	{Name: "GOWALLA", Dim: 2, OriginalScale: 6442863, ZeroFrac: 0.8892, family: shapeFamily{"geo", 20, 5}},
	{Name: "ADULT-2D", Dim: 2, OriginalScale: 32561, ZeroFrac: 0.9930, family: shapeFamily{"grid2d", 2.5, 0}},
	{Name: "SF-CABS-S", Dim: 2, OriginalScale: 464040, ZeroFrac: 0.9504, family: shapeFamily{"geo", 6, 4}},
	{Name: "SF-CABS-E", Dim: 2, OriginalScale: 464040, ZeroFrac: 0.9731, family: shapeFamily{"geo", 5, 3.5}},
	{Name: "MD-SAL-2D", Dim: 2, OriginalScale: 70526, ZeroFrac: 0.9789, New: true, family: shapeFamily{"grid2d", 2.0, 0}},
	{Name: "LC-2D", Dim: 2, OriginalScale: 550559, ZeroFrac: 0.9266, New: true, family: shapeFamily{"grid2d", 1.5, 0}},
	{Name: "STROKE", Dim: 2, OriginalScale: 19435, ZeroFrac: 0.7902, New: true, family: shapeFamily{"geo", 3, 25}},
}

// Registry1D returns the 18 one-dimensional datasets of Table 2.
func Registry1D() []Dataset { return append([]Dataset(nil), registry1D...) }

// Registry2D returns the 9 two-dimensional datasets of Table 2.
func Registry2D() []Dataset { return append([]Dataset(nil), registry2D...) }

// ByName returns the dataset with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range registry1D {
		if d.Name == name {
			return d, nil
		}
	}
	for _, d := range registry2D {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

var (
	shapeMu    sync.Mutex
	shapeCache = map[string]*vec.Vector{}
)

// SourceShape returns the dataset's shape vector at the maximum domain size
// (4096 cells for 1D, 256x256 for 2D). The result is deterministic per
// dataset name and cached; callers must not modify it.
func (d Dataset) SourceShape() *vec.Vector {
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if v, ok := shapeCache[d.Name]; ok {
		return v
	}
	v := d.synthesize()
	shapeCache[d.Name] = v
	return v
}

// synthesize builds the mass distribution at the maximum domain, applies the
// Table 2 zero-fraction, and normalizes to a shape (sums to 1).
func (d Dataset) synthesize() *vec.Vector {
	rng := rand.New(rand.NewSource(int64(nameSeed(d.Name))))
	var v *vec.Vector
	if d.Dim == 1 {
		v = vec.New(MaxDomain1D)
		d.fill1D(rng, v.Data)
	} else {
		v = vec.New(MaxDomain2D, MaxDomain2D)
		d.fill2D(rng, v.Data, MaxDomain2D)
	}
	applyZeroFraction(rng, v.Data, d.ZeroFrac)
	normalize(v.Data)
	return v
}

func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func (d Dataset) fill1D(rng *rand.Rand, mass []float64) {
	n := len(mass)
	switch d.family.kind {
	case "powerlaw":
		// Heavy-tailed counts concentrated at a random anchor, mimicking
		// quantity histograms (capital gain, search frequencies, costs).
		anchor := rng.Intn(n / 8)
		alpha := d.family.param
		for i := range mass {
			dist := math.Abs(float64(i - anchor))
			mass[i] = math.Pow(dist+1, -alpha) * (0.5 + rng.Float64())
		}
	case "gaussmix":
		// A few broad modes covering most of the domain (publication years,
		// patent dates, debt-to-income ratios).
		modes := int(d.family.param)
		width := d.family.param2 * float64(n)
		for m := 0; m < modes; m++ {
			mu := rng.Float64() * float64(n)
			sigma := width * (0.3 + rng.Float64())
			weight := 0.3 + rng.Float64()
			for i := range mass {
				z := (float64(i) - mu) / sigma
				mass[i] += weight * math.Exp(-z*z/2)
			}
		}
	case "spikes":
		// Salary/loan data: most mass in sharp spikes at "round" values on
		// top of a faint power-law background.
		spikes := int(d.family.param)
		sharp := d.family.param2
		for s := 0; s < spikes; s++ {
			pos := rng.Intn(n)
			weight := math.Pow(rng.Float64(), sharp) * 100
			mass[pos] += weight
			// A little leakage to the immediate neighbours.
			if pos > 0 {
				mass[pos-1] += weight * 0.05
			}
			if pos < n-1 {
				mass[pos+1] += weight * 0.05
			}
		}
		for i := range mass {
			mass[i] += 0.01 * math.Pow(float64(i+1), -1.2)
		}
	case "dense":
		// Bid streams / ratio data: every cell positive, moderate skew.
		alpha := d.family.param
		for i := range mass {
			u := rng.Float64()
			mass[i] = math.Pow(u, alpha) + 0.05
		}
	default:
		panic("dataset: unknown 1D family " + d.family.kind)
	}
}

func (d Dataset) fill2D(rng *rand.Rand, mass []float64, side int) {
	switch d.family.kind {
	case "geo":
		// Spatial point data: a handful of dense urban clusters plus roads
		// (line segments) on an empty background.
		clusters := int(d.family.param)
		spread := d.family.param2
		for c := 0; c < clusters; c++ {
			cx := rng.Float64() * float64(side)
			cy := rng.Float64() * float64(side)
			sigma := spread * (0.3 + rng.Float64())
			weight := 0.2 + rng.Float64()
			// Rasterize the cluster within 3 sigma.
			r := int(3*sigma) + 1
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					x, y := int(cx)+dx, int(cy)+dy
					if x < 0 || x >= side || y < 0 || y >= side {
						continue
					}
					zx := (float64(x) - cx) / sigma
					zy := (float64(y) - cy) / sigma
					mass[y*side+x] += weight * math.Exp(-(zx*zx+zy*zy)/2)
				}
			}
		}
		// Roads: straight segments connecting random cluster-ish points.
		for s := 0; s < clusters/2+1; s++ {
			x0, y0 := rng.Float64()*float64(side), rng.Float64()*float64(side)
			x1, y1 := rng.Float64()*float64(side), rng.Float64()*float64(side)
			steps := 2 * side
			for t := 0; t <= steps; t++ {
				f := float64(t) / float64(steps)
				x, y := int(x0+(x1-x0)*f), int(y0+(y1-y0)*f)
				if x >= 0 && x < side && y >= 0 && y < side {
					mass[y*side+x] += 0.02
				}
			}
		}
	case "grid2d":
		// Product-like attribute pairs (salary x overtime, amount x income):
		// heavy mass near the origin decaying as a product of power laws,
		// with correlated diagonal structure.
		alpha := d.family.param
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				base := math.Pow(float64(x+1), -alpha) * math.Pow(float64(y+1), -alpha)
				diag := math.Exp(-math.Abs(float64(x-y)) / (0.15 * float64(side)))
				mass[y*side+x] = base*(0.5+rng.Float64()) + 0.001*base*diag
			}
		}
	default:
		panic("dataset: unknown 2D family " + d.family.kind)
	}
}

// applyZeroFraction zeroes the smallest cells until the requested fraction of
// cells is exactly zero, matching Table 2's sparsity statistics.
func applyZeroFraction(rng *rand.Rand, mass []float64, frac float64) {
	if frac <= 0 {
		// Ensure strictly positive everywhere for the 0%-zeros datasets.
		for i, v := range mass {
			if v <= 0 {
				mass[i] = 1e-6 * (1 + rng.Float64())
			}
		}
		return
	}
	n := len(mass)
	target := int(math.Round(frac * float64(n)))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return mass[idx[a]] < mass[idx[b]] })
	for i := 0; i < target && i < n; i++ {
		mass[idx[i]] = 0
	}
	// Make sure the remaining cells are positive.
	for i := target; i < n; i++ {
		if mass[idx[i]] <= 0 {
			mass[idx[i]] = 1e-9
		}
	}
}

func normalize(mass []float64) {
	var s float64
	for _, v := range mass {
		s += v
	}
	if s == 0 {
		u := 1 / float64(len(mass))
		for i := range mass {
			mass[i] = u
		}
		return
	}
	for i := range mass {
		mass[i] /= s
	}
}

// Shape returns the dataset's shape vector coarsened to the requested domain
// (dims must evenly divide the maximum domain). For 1D pass one dim; for 2D
// pass (rows, cols).
func (d Dataset) Shape(dims ...int) (*vec.Vector, error) {
	src := d.SourceShape()
	if len(dims) != len(src.Dims) {
		return nil, fmt.Errorf("dataset: %s is %dD, got dims %v", d.Name, d.Dim, dims)
	}
	coarse, err := src.Coarsen(dims...)
	if err != nil {
		return nil, err
	}
	normalize(coarse.Data)
	return coarse, nil
}

// Generate is the DPBench data generator G (Section 5.1): it isolates the
// dataset's shape on the requested domain and samples scale tuples with
// replacement, returning a data vector with integral counts summing exactly
// to scale.
func (d Dataset) Generate(rng *rand.Rand, scale int, dims ...int) (*vec.Vector, error) {
	p, err := d.Shape(dims...)
	if err != nil {
		return nil, err
	}
	counts := noise.Multinomial(rng, scale, p.Data)
	out := vec.New(dims...)
	for i, c := range counts {
		out.Data[i] = float64(c)
	}
	return out, nil
}
