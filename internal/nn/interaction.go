package nn

import (
	"fmt"
	"sync/atomic"

	"hotline/internal/par"
	"hotline/internal/tensor"
)

// DotInteraction implements the DLRM feature-interaction layer: given the
// bottom-MLP output z0 and the per-table embedding vectors (all of equal
// dimension d), it emits for each sample the concatenation of z0 with the
// pairwise dot products of all distinct vector pairs.
//
// With n = 1 + numTables vectors the output width is d + n(n-1)/2.
// Output and input-gradient matrices are per-instance scratch reused
// across calls.
type DotInteraction struct {
	Dim    int
	NumVec int // vectors per sample: 1 (dense) + number of embedding tables

	lastInputs []*tensor.Matrix
	out        tensor.Matrix
	vt         tensor.Matrix // one sample's vectors transposed, a row per concurrent fwdRange
	grads      []*tensor.Matrix
}

// NewDotInteraction returns the interaction op for numTables embedding
// tables of dimension dim.
func NewDotInteraction(dim, numTables int) *DotInteraction {
	return &DotInteraction{Dim: dim, NumVec: numTables + 1}
}

// OutWidth returns the output feature width.
func (d *DotInteraction) OutWidth() int {
	n := d.NumVec
	return d.Dim + n*(n-1)/2
}

// termBlock is the most terms fwdRange and bwdRange hand tensor.AxpyRows at
// once (the block's row headers and factors live on their stacks); a longer
// chain is cut into blocks, which no output bit can see.
const termBlock = 64

// fwdRange computes samples [lo, hi) of the interaction output. Pair (i, j),
// j < i, is output column Dim + i(i-1)/2 + j, so vector i's pairs are one
// run of i columns: its dot products with vectors 0..i-1. The lanes of a dot
// product are not independent output elements, but those i dot products are:
// the sample's vectors are transposed into vt (component t of every vector
// side by side; NumVec*Dim scratch private to this call), and the run is
// then the chain ((0 + x[0]*vt[0]) + x[1]*vt[1]) + ... over vector i's
// components x — tensor.AxpyRows with the components as factors — which is
// every pair's own dot product, accumulated in ascending component from +0
// with no term skipped.
//
//hotline:hotpath
func (d *DotInteraction) fwdRange(out *tensor.Matrix, inputs []*tensor.Matrix, vt []float32, lo, hi int) {
	var rows [termBlock][]float32
	n := d.NumVec
	for b := lo; b < hi; b++ {
		row := out.Row(b)
		copy(row[:d.Dim], inputs[0].Row(b))
		pairs := row[d.Dim:]
		clear(pairs)
		for j, in := range inputs {
			at := j
			for _, x := range in.Row(b) {
				vt[at] = x
				at += n
			}
		}
		for t0 := 0; t0 < d.Dim; t0 += termBlock {
			t1 := min(t0+termBlock, d.Dim)
			for t := t0; t < t1; t++ {
				rows[t-t0] = vt[t*n : t*n+n]
			}
			for i := 1; i < n; i++ {
				tensor.AxpyRows(pairs[i*(i-1)/2:][:i], rows[:t1-t0], inputs[i].Row(b)[t0:t1])
			}
		}
	}
}

// Forward consumes the dense vector matrix followed by one matrix per
// embedding table, each of shape (B x Dim), and returns (B x OutWidth()).
//
//hotline:hotpath
func (d *DotInteraction) Forward(inputs []*tensor.Matrix) *tensor.Matrix {
	if len(inputs) != d.NumVec {
		panic(fmt.Sprintf("nn: DotInteraction wants %d inputs, got %d", d.NumVec, len(inputs)))
	}
	batch := inputs[0].Rows
	for i, m := range inputs {
		if m.Rows != batch || m.Cols != d.Dim {
			panic(fmt.Sprintf("nn: DotInteraction input %d is %dx%d want %dx%d", i, m.Rows, m.Cols, batch, d.Dim))
		}
	}
	d.lastInputs = inputs
	out := d.out.ResizeNoZero(batch, d.OutWidth()) // every cell written by fwdRange
	perSample := int64(d.NumVec) * int64(d.NumVec) * int64(d.Dim)
	if par.Serial(batch, perSample) {
		d.fwdRange(out, inputs, d.vt.ResizeNoZero(1, d.NumVec*d.Dim).Data, 0, batch)
	} else {
		// Shards run at once, so each takes a transpose slot of its own.
		vt := d.vt.ResizeNoZero(par.Workers(), d.NumVec*d.Dim)
		var slot atomic.Int32
		par.ForWork(batch, perSample, func(lo, hi int) {
			d.fwdRange(out, inputs, vt.Row(int(slot.Add(1))-1), lo, hi)
		})
	}
	return out
}

// bwdRange computes samples [lo, hi) of every input gradient, one vector at
// a time: the gradient of vector v is the sum over the other vectors u of
// (output gradient of the pair u, v) x u, taken in ascending u. That is the
// order the pair-by-pair scatter visits v in (as the pair's first vector
// against every u < v, then as the second vector of every u > v), so each
// element's chain is the same; gathering v's pair gradients into one factor
// row makes it one call of tensor.AxpyNonZeroRows. A pair whose output
// gradient is zero contributes no term, as in the GEMM kernels; neither does
// the zero that stands for the pair (v, v).
//
//hotline:hotpath
func (d *DotInteraction) bwdRange(grads []*tensor.Matrix, gradOut *tensor.Matrix, lo, hi int) {
	var (
		rows [termBlock][]float32
		facs [termBlock]float32
	)
	in, n := d.lastInputs, d.NumVec
	for b := lo; b < hi; b++ {
		grow := gradOut.Row(b)
		// Pass-through gradient for the copied dense vector: where vector
		// 0's chain starts. The others start from Backward's zeroing.
		copy(grads[0].Row(b), grow[:d.Dim])
		pairs := grow[d.Dim:]
		for u0 := 0; u0 < n; u0 += termBlock {
			u1 := min(u0+termBlock, n)
			for u := u0; u < u1; u++ {
				rows[u-u0] = in[u].Row(b)
			}
			for v := 0; v < n; v++ {
				pairFactors(facs[:u1-u0], pairs, v, u0)
				tensor.AxpyNonZeroRows(grads[v].Row(b), rows[:u1-u0], facs[:u1-u0])
			}
		}
	}
}

// pairFactors fills facs with the entries of pairs that belong to vector v
// and vectors u0, u0+1, ...: pair (i, j), j < i, is column i(i-1)/2 + j, so
// v's pairs with the vectors before it are one run and those with the
// vectors after it lie u columns apart. The pair (v, v) does not exist and
// reads as zero.
//
//hotline:hotpath
func pairFactors(facs, pairs []float32, v, u0 int) {
	u1 := u0 + len(facs)
	if u0 < v {
		copy(facs, pairs[v*(v-1)/2+u0:][:min(u1, v)-u0])
	}
	if u0 <= v && v < u1 {
		facs[v-u0] = 0
	}
	u := max(u0, v+1)
	for at := u*(u-1)/2 + v; u < u1; u++ {
		facs[u-u0] = pairs[at]
		at += u
	}
}

// Backward returns one gradient matrix per forward input, in order (scratch
// owned by d, valid until the next Backward call).
//
//hotline:hotpath
func (d *DotInteraction) Backward(gradOut *tensor.Matrix) []*tensor.Matrix {
	if d.lastInputs == nil {
		panic("nn: DotInteraction.Backward before Forward")
	}
	batch := d.lastInputs[0].Rows
	if d.grads == nil {
		d.grads = make([]*tensor.Matrix, d.NumVec) //hotline:allow hotalloc lazy one-time gradient-buffer init
		for i := range d.grads {
			d.grads[i] = &tensor.Matrix{} //hotline:allow hotalloc lazy one-time gradient-buffer init
		}
	}
	for i := range d.grads {
		d.grads[i].Resize(batch, d.Dim)
	}
	grads := d.grads
	perSample := int64(d.NumVec) * int64(d.NumVec) * int64(d.Dim)
	if par.Serial(batch, perSample) {
		d.bwdRange(grads, gradOut, 0, batch)
	} else {
		par.ForWork(batch, perSample, func(lo, hi int) {
			d.bwdRange(grads, gradOut, lo, hi)
		})
	}
	return grads
}
