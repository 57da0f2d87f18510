package nn

import (
	"fmt"

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

// fwdRange computes samples [lo, hi) of the interaction output. Pair (i, j),
// j < i, is output column Dim + i(i-1)/2 + j. The pairs are taken four
// columns j..j+3 at a time, their vectors sliced once, and every later vector
// i goes against all four through tensor.Dot4 (four independent chains, each
// bit-equal to the one-pair loop). Where fewer than four of the columns are
// below i (the triangle's diagonal, or the vector count's remainder, where
// the last vector stands in) the surplus chains are computed and dropped.
//
//hotline:hotpath
func (d *DotInteraction) fwdRange(out *tensor.Matrix, inputs []*tensor.Matrix, lo, hi int) {
	last := d.NumVec - 1
	for b := lo; b < hi; b++ {
		row := out.Row(b)
		copy(row[:d.Dim], inputs[0].Row(b))
		pairs := row[d.Dim:]
		for j := 0; j < last; j += 4 {
			v0, v1 := inputs[j].Row(b), inputs[min(j+1, last)].Row(b)
			v2, v3 := inputs[min(j+2, last)].Row(b), inputs[min(j+3, last)].Row(b)
			for i := j + 1; i <= last; i++ {
				s0, s1, s2, s3 := tensor.Dot4(inputs[i].Row(b), v0, v1, v2, v3)
				ofI := pairs[i*(i-1)/2:][:i] // vector i's pairs
				if o := ofI[j:min(i, j+4)]; len(o) == 4 {
					o[0], o[1], o[2], o[3] = s0, s1, s2, s3
				} else {
					dots := [4]float32{s0, s1, s2, s3}
					copy(o, dots[:])
				}
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
		d.fwdRange(out, inputs, 0, batch)
	} else {
		par.ForWork(batch, perSample, func(lo, hi int) {
			d.fwdRange(out, inputs, lo, hi)
		})
	}
	return out
}

// bwdRange computes samples [lo, hi) of every input gradient, one vector at
// a time: the gradient of vector v is the sum over the other vectors u of
// (output gradient of the pair u, v) x u, taken in ascending u. That is the
// order the pair-by-pair scatter visits v in (as the pair's first vector
// against every u < v, then as the second vector of every u > v), so each
// element's chain is the same; gathering it per destination lets four terms
// go through tensor.Axpy4 with the row loaded and stored once. A pair whose
// output gradient is zero contributes no term, as in the GEMM kernels.
//
//hotline:hotpath
func (d *DotInteraction) bwdRange(grads []*tensor.Matrix, gradOut *tensor.Matrix, lo, hi int) {
	in := d.lastInputs
	for b := lo; b < hi; b++ {
		grow := gradOut.Row(b)
		// Pass-through gradient for the copied dense vector: where vector
		// 0's chain starts. The others start from Backward's zeroing.
		copy(grads[0].Row(b), grow[:d.Dim])
		pairs := grow[d.Dim:]
		for v := 0; v < d.NumVec; v++ {
			gv := grads[v].Row(b)
			var (
				vec [4]int // pending terms: vector index, pair gradient
				fac [4]float32
				p   int
			)
			for u := 0; u < d.NumVec; u++ {
				// Pair (i, j), j < i, is output column Dim + i(i-1)/2 + j.
				i, j := max(u, v), min(u, v)
				var g float32
				if i != j {
					g = pairs[i*(i-1)/2+j]
				}
				vec[p&3], fac[p&3] = u, g
				if p += tensor.NonZero(g); p == 4 {
					tensor.Axpy4(gv, in[vec[0]].Row(b), in[vec[1]].Row(b), in[vec[2]].Row(b), in[vec[3]].Row(b),
						fac[0], fac[1], fac[2], fac[3])
					p = 0
				}
			}
			for q := 0; q < p; q++ {
				tensor.Axpy(gv, in[vec[q&3]].Row(b), fac[q&3])
			}
		}
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
