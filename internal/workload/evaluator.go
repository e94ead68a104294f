package workload

import (
	"fmt"
	"slices"
)

// Evaluator answers a workload repeatedly against changing estimate vectors
// without allocating: it owns the prefix-sum (1D) or summed-area (2D) table
// and writes query answers into caller-provided buffers. The pattern is
//
//	ev := workload.NewEvaluator(w)
//	for each trial {
//	    ev.Reset(est)          // O(n): rebuild the table for this estimate
//	    ev.AnswerAll(buf)      // O(q): answer every query into buf
//	}
//
// Reset and AnswerAll are allocation-free after construction, which is what
// keeps the per-trial hot path of the experiment runner and of MWEM's
// selection step off the garbage collector. An Evaluator is not safe for
// concurrent use; pool one per worker.
type Evaluator struct {
	w     *Workload
	table []float64 // len n+1 (1D) or (nx+1)*(ny+1) (2D); index 0 row/col stay 0
}

// NewEvaluator returns an Evaluator for w. It panics on workloads over
// unsupported dimensionalities (only 1D and 2D exist in the benchmark).
func NewEvaluator(w *Workload) *Evaluator {
	switch len(w.Dims) {
	case 1:
		return &Evaluator{w: w, table: make([]float64, w.Dims[0]+1)}
	case 2:
		ny, nx := w.Dims[0], w.Dims[1]
		return &Evaluator{w: w, table: make([]float64, (ny+1)*(nx+1))}
	default:
		panic(fmt.Sprintf("workload: unsupported dimensionality %d", len(w.Dims)))
	}
}

// Bind points the evaluator at w, which must be over the dims the evaluator
// was built for; the table is kept, so one pooled evaluator can answer every
// workload of its shape in turn. It does not allocate.
func (e *Evaluator) Bind(w *Workload) {
	if !slices.Equal(w.Dims, e.w.Dims) {
		panic(fmt.Sprintf("workload: binding a workload over %v to an evaluator over %v", w.Dims, e.w.Dims))
	}
	e.w = w
}

// Reset rebuilds the internal table from the given flat estimate vector,
// which must match the workload's domain. It does not retain data.
func (e *Evaluator) Reset(data []float64) {
	switch len(e.w.Dims) {
	case 1:
		if n := e.w.Dims[0]; len(data) != n {
			panic(fmt.Sprintf("workload: estimate length %d does not match domain %d", len(data), n))
		}
	case 2:
		if ny, nx := e.w.Dims[0], e.w.Dims[1]; len(data) != nx*ny {
			panic(fmt.Sprintf("workload: estimate length %d does not match domain %dx%d", len(data), ny, nx))
		}
	}
	FillTable(e.table, data, e.w.Dims)
}

// FillTable writes the answer table of data over dims into table without
// allocating. In 1D (table of length n+1) it is the prefix sums,
// table[i+1] = table[i] + data[i]. In 2D (dims {ny, nx}, table of length
// (ny+1)*(nx+1)) it is the summed-area table: table[y*(nx+1)+x] is the sum
// of the cells with row < y and column < x. Row 0 and column 0 of the table
// must be zero, as a fresh table is; FillTable never writes them.
//
// Each entry is rounded exactly as the textbook recurrences
// table[i] + data[i] and data + above + left - aboveLeft (left to right)
// round it. The running value of the current row is kept in a register
// instead of being read back from the entry just stored.
func FillTable(table, data []float64, dims []int) {
	if len(dims) == 1 {
		var acc float64
		for i, v := range data {
			acc += v
			table[i+1] = acc
		}
		return
	}
	ny, nx := dims[0], dims[1]
	stride := nx + 1
	for y := 0; y < ny; y++ {
		prev := table[y*stride : (y+1)*stride]
		row := table[(y+1)*stride : (y+2)*stride]
		src := data[y*nx : (y+1)*nx]
		var acc float64 // row[0]
		for x, v := range src {
			acc = v + prev[x+1] + acc - prev[x]
			row[x+1] = acc
		}
	}
}

// Total returns the sum of the estimate vector passed to the last Reset (the
// full-domain prefix entry), at no extra cost.
func (e *Evaluator) Total() float64 { return e.table[len(e.table)-1] }

// AnswerAll writes the answer of every query into dst and returns it. dst
// must have length w.Size(); a nil dst allocates a fresh slice. With a
// non-nil dst the call performs no allocations.
func (e *Evaluator) AnswerAll(dst []float64) []float64 {
	q := e.w.Size()
	if dst == nil {
		dst = make([]float64, q)
	}
	if len(dst) != q {
		panic(fmt.Sprintf("workload: answer buffer length %d does not match %d queries", len(dst), q))
	}
	switch len(e.w.Dims) {
	case 1:
		table, lo0, hi0 := e.table, e.w.lo0, e.w.hi0
		for k := range dst {
			dst[k] = table[hi0[k]+1] - table[lo0[k]]
		}
	case 2:
		sat := e.table
		stride := e.w.Dims[1] + 1
		lo0, hi0, lo1, hi1 := e.w.lo0, e.w.hi0, e.w.lo1, e.w.hi1
		for k := range dst {
			y0, x0 := int(lo0[k]), int(lo1[k])
			y1, x1 := int(hi0[k])+1, int(hi1[k])+1
			dst[k] = sat[y1*stride+x1] - sat[y0*stride+x1] - sat[y1*stride+x0] + sat[y0*stride+x0]
		}
	}
	return dst
}
