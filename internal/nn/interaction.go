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
//
// Both passes run on groups of tensor.Lanes (eight) samples, one sample in
// each lane of a vector: the group's vectors are transposed into lane
// blocks ([vector][component][lane]), the lane bodies of package tensor run
// every sample's chains side by side, and the results are transposed back
// into the samples' rows. A lane is an independent output element, and
// every element's own chain is the one a pair-by-pair scalar loop builds. A
// partial last group computes zeros in its empty lanes and writes back only
// its real samples.
type DotInteraction struct {
	Dim    int
	NumVec int // vectors per sample: 1 (dense) + number of embedding tables

	lastInputs []*tensor.Matrix
	out        tensor.Matrix
	lanes      tensor.Matrix // one group's lane blocks, a row per concurrent shard
	chains     []int32       // per vector v, the pair-gradient row of each u (u, v)
	grads      []*tensor.Matrix
}

// NewDotInteraction returns the interaction op for numTables embedding
// tables of dimension dim.
func NewDotInteraction(dim, numTables int) *DotInteraction {
	d := &DotInteraction{Dim: dim, NumVec: numTables + 1}
	// Pair (i, j), j < i, is pair row i(i-1)/2 + j. The pair (v, v) does
	// not exist: it reads the zero row after the last pair.
	n := d.NumVec
	d.chains = make([]int32, 0, n*n)
	for v := range n {
		for u := range n {
			i, j := max(u, v), min(u, v)
			row := i*(i-1)/2 + j
			if u == v {
				row = d.pairs()
			}
			d.chains = append(d.chains, int32(row))
		}
	}
	return d
}

// OutWidth returns the output feature width.
func (d *DotInteraction) OutWidth() int {
	return d.Dim + d.pairs()
}

// pairs returns the number of distinct vector pairs, n(n-1)/2.
func (d *DotInteraction) pairs() int {
	return d.NumVec * (d.NumVec - 1) / 2
}

// scratch returns slots rows of lane-block scratch: a group's vectors
// (NumVec blocks of Dim rows), its pair block (a row per pair and the zero
// row) and one vector's gradient block.
//
//hotline:hotpath
func (d *DotInteraction) scratch(slots int) *tensor.Matrix {
	return d.lanes.ResizeNoZero(slots, tensor.Lanes*((d.NumVec+1)*d.Dim+d.pairs()+1))
}

// split cuts a scratch row into the group's vector blocks, its pair block
// and the gradient block.
//
//hotline:hotpath
func (d *DotInteraction) split(row []float32) (x, pairs, acc []float32) {
	vs := tensor.Lanes * d.Dim
	x, row = row[:d.NumVec*vs], row[d.NumVec*vs:]
	pairs, acc = row[:tensor.Lanes*(d.pairs()+1)], row[tensor.Lanes*(d.pairs()+1):][:vs]
	return x, pairs, acc
}

// gather transposes samples [b0, b0+lanes) of every input into x's lane
// blocks, zeros first when the group is partial.
//
//hotline:hotpath
func (d *DotInteraction) gather(x []float32, inputs []*tensor.Matrix, b0, lanes int) {
	if lanes < tensor.Lanes {
		clear(x)
	}
	vs := tensor.Lanes * d.Dim
	for j, in := range inputs {
		tensor.TransposeBlock(x[j*vs:], tensor.Lanes, in.Data[b0*d.Dim:], d.Dim, lanes, d.Dim)
	}
}

// forwardGroups computes groups [g0, g1) of the interaction output. Pair
// (i, j), j < i, is output column Dim + i(i-1)/2 + j, so vector i's pairs
// are one run of i pair rows, and tensor.DotLanes computes the run from
// vector i's block against the blocks of vectors 0..i-1: each lane's dot
// product accumulated in ascending component from +0 with no term skipped.
//
//hotline:hotpath
func (d *DotInteraction) forwardGroups(out *tensor.Matrix, inputs []*tensor.Matrix, scratch []float32, g0, g1 int) {
	x, pairs, _ := d.split(scratch)
	n, dim, vs := d.NumVec, d.Dim, tensor.Lanes*d.Dim
	for g := g0; g < g1; g++ {
		b0 := g * tensor.Lanes
		lanes := min(tensor.Lanes, out.Rows-b0)
		d.gather(x, inputs, b0, lanes)
		for i := 1; i < n; i++ {
			tensor.DotLanes(pairs[tensor.Lanes*i*(i-1)/2:], x[i*vs:], x, vs, i, dim)
		}
		for b := b0; b < b0+lanes; b++ {
			copy(out.Row(b)[:dim], inputs[0].Row(b))
		}
		tensor.TransposeBlock(out.Data[b0*out.Cols+dim:], out.Cols, pairs, tensor.Lanes, d.pairs(), lanes)
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
	out := d.out.ResizeNoZero(batch, d.OutWidth()) // every cell written by forwardGroups
	groups, perGroup := d.groups(batch)
	if par.Serial(groups, perGroup) {
		d.forwardGroups(out, inputs, d.scratch(1).Data, 0, groups)
	} else {
		// Shards run at once, so each takes a scratch slot of its own.
		lanes := d.scratch(par.Workers())
		var slot atomic.Int32
		par.ForWork(groups, perGroup, func(g0, g1 int) {
			d.forwardGroups(out, inputs, lanes.Row(int(slot.Add(1))-1), g0, g1)
		})
	}
	return out
}

// groups returns the number of lane groups a batch makes and the work of
// one, in the multiply-adds par sizes its shards by.
//
//hotline:hotpath
func (d *DotInteraction) groups(batch int) (int, int64) {
	return (batch + tensor.Lanes - 1) / tensor.Lanes, tensor.Lanes * int64(d.NumVec) * int64(d.NumVec) * int64(d.Dim)
}

// backwardGroups computes groups [g0, g1) of every input gradient, one
// vector at a time: the gradient of vector v is the sum over the other
// vectors u of (output gradient of the pair u, v) x u, taken in ascending u.
// That is the order the pair-by-pair scatter visits v in (as the pair's
// first vector against every u < v, then as the second vector of every
// u > v), so each element's chain is the same. The group's pair gradients
// are transposed into a pair block once; v's chains are then one call of
// tensor.AxpyLanes over the vector blocks, each lane scaled by its own
// sample's pair gradient. A pair whose output gradient is zero contributes
// no term, as in the GEMM kernels; neither does the zero row that stands for
// the pair (v, v). Vector 0's chains start from the pass-through gradient of
// the copied dense vector, the others from +0.
//
//hotline:hotpath
func (d *DotInteraction) backwardGroups(grads []*tensor.Matrix, gradOut *tensor.Matrix, scratch []float32, g0, g1 int) {
	x, pairs, acc := d.split(scratch)
	n, dim, w := d.NumVec, d.Dim, gradOut.Cols
	clear(pairs[tensor.Lanes*d.pairs():])
	for g := g0; g < g1; g++ {
		b0 := g * tensor.Lanes
		lanes := min(tensor.Lanes, gradOut.Rows-b0)
		d.gather(x, d.lastInputs, b0, lanes)
		if lanes < tensor.Lanes {
			clear(pairs)
		}
		tensor.TransposeBlock(pairs, tensor.Lanes, gradOut.Data[b0*w+dim:], w, lanes, d.pairs())
		for v := range n {
			var start []float32 // +0
			if v == 0 {
				tensor.TransposeBlock(acc, tensor.Lanes, gradOut.Data[b0*w:], w, lanes, dim)
				start = acc
			}
			tensor.AxpyLanes(acc, start, x, tensor.Lanes*dim, pairs, d.chains[v*n:][:n])
			tensor.TransposeBlock(grads[v].Data[b0*dim:], dim, acc, tensor.Lanes, dim, lanes)
		}
	}
}

// Backward returns one gradient matrix per forward input, in order (scratch
// owned by d, valid until the next Backward call). gradOut must be the
// forward batch x OutWidth().
//
//hotline:hotpath
func (d *DotInteraction) Backward(gradOut *tensor.Matrix) []*tensor.Matrix {
	if d.lastInputs == nil {
		panic("nn: DotInteraction.Backward before Forward")
	}
	batch := d.lastInputs[0].Rows
	if gradOut.Rows != batch || gradOut.Cols != d.OutWidth() {
		panic(fmt.Sprintf("nn: DotInteraction gradOut is %dx%d want %dx%d", gradOut.Rows, gradOut.Cols, batch, d.OutWidth()))
	}
	if d.grads == nil {
		d.grads = make([]*tensor.Matrix, d.NumVec) //hotline:allow hotalloc lazy one-time gradient-buffer init
		for i := range d.grads {
			d.grads[i] = &tensor.Matrix{} //hotline:allow hotalloc lazy one-time gradient-buffer init
		}
	}
	for i := range d.grads {
		d.grads[i].ResizeNoZero(batch, d.Dim) // every cell written by backwardGroups
	}
	grads := d.grads
	groups, perGroup := d.groups(batch)
	if par.Serial(groups, perGroup) {
		d.backwardGroups(grads, gradOut, d.scratch(1).Data, 0, groups)
	} else {
		lanes := d.scratch(par.Workers())
		var slot atomic.Int32
		par.ForWork(groups, perGroup, func(g0, g1 int) {
			d.backwardGroups(grads, gradOut, lanes.Row(int(slot.Add(1))-1), g0, g1)
		})
	}
	return grads
}
