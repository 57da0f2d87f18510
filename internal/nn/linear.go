package nn

import (
	"fmt"

	"hotline/internal/tensor"
)

// Linear is a fully connected layer computing y = x·W + b with
// W of shape (in x out) and b of length out.
//
// Forward/backward scratch (the output, the per-call weight-gradient
// staging, the input gradient and the packed Wᵀ it is computed from) lives
// in per-instance buffers that are resized instead of reallocated, so
// steady-state training allocates nothing. A returned matrix is therefore
// valid only until the next Forward/Backward call on the same instance;
// shadows own private scratch (two µ-batch passes pack Wᵀ at once), and an
// instance that never runs Backward — a serve replica — never allocates the
// backward half.
type Linear struct {
	In, Out int
	W       *tensor.Matrix // in x out
	B       *tensor.Matrix // 1 x out
	GradW   *tensor.Matrix
	GradB   *tensor.Matrix

	lastInput *tensor.Matrix // cached for backward
	out       tensor.Matrix  // forward output scratch
	gwScratch tensor.Matrix  // per-call dW staging (summed into GradW)
	gradIn    tensor.Matrix  // backward output scratch
	wT        tensor.Matrix  // Wᵀ, packed by each Backward for the input gradient
}

// NewLinear returns a Linear layer with Xavier-initialised weights.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:    in,
		Out:   out,
		W:     tensor.New(in, out),
		B:     tensor.New(1, out),
		GradW: tensor.New(in, out),
		GradB: tensor.New(1, out),
	}
	tensor.XavierInit(l.W, in, out, rng)
	return l
}

// Shadow returns a Linear that shares l's weight and bias storage but owns
// private gradient accumulators and forward cache, so two µ-batches can run
// forward/backward concurrently against the same parameters.
func (l *Linear) Shadow() *Linear {
	return &Linear{
		In: l.In, Out: l.Out, W: l.W, B: l.B,
		GradW: tensor.New(l.In, l.Out),
		GradB: tensor.New(1, l.Out),
	}
}

// Forward computes x·W + b for a batch x of shape (B x in). The returned
// matrix is scratch owned by l, valid until the next Forward call.
//
//hotline:hotpath
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear forward input cols %d want %d", x.Cols, l.In))
	}
	l.lastInput = x
	out := l.out.ResizeNoZero(x.Rows, l.Out) // MatMul zeroes its destination
	tensor.MatMul(out, x, l.W)
	tensor.AddBiasRow(out, l.B.Data)
	return out
}

// Backward accumulates dW = xᵀ·g, db = Σrows g and returns dx = g·Wᵀ
// (scratch owned by l, valid until the next Backward call). W moves between
// steps, so Wᵀ is packed afresh by every call.
//
//hotline:hotpath
func (l *Linear) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if l.lastInput == nil {
		panic("nn: Linear.Backward before Forward")
	}
	gw := l.gwScratch.ResizeNoZero(l.In, l.Out) // MatMulTransA zeroes its destination
	tensor.MatMulTransA(gw, l.lastInput, gradOut)
	tensor.AxpyInto(l.GradW, 1, gw)
	tensor.SumRowsInto(l.GradB.Data, gradOut)
	gradIn := l.gradIn.ResizeNoZero(gradOut.Rows, l.In) // MatMulTransB zeroes its destination
	tensor.MatMulTransB(gradIn, gradOut, l.W, &l.wT)
	return gradIn
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: "W", Value: l.W, Grad: l.GradW},
		{Name: "b", Value: l.B, Grad: l.GradB},
	}
}
