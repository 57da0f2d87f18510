package nn

import (
	"math"

	"hotline/internal/par"
	"hotline/internal/tensor"
)

// ReLU is the rectified-linear activation. Output, mask and input-gradient
// buffers are per-instance scratch reused across calls (valid until the
// next Forward/Backward on the same instance).
type ReLU struct {
	out    tensor.Matrix
	mask   tensor.Matrix // 1 where input > 0
	gradIn tensor.Matrix
	fwdRun bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// reluRange computes elements [lo, hi) of max(x, 0) and the mask without a
// branch (a ReLU's input is negative about half the time, at random): the
// output is v where 0 < v and +0 everywhere else, -0 and NaN included, and
// the mask 1 or +0. A float32 v is greater than zero exactly when its bits
// less one, unsigned, are below those of +Inf (+Inf itself included): the
// sign of that difference, taken in 64 bits, keeps or clears all of v's
// bits and those of 1.
//
//hotline:hotpath
func reluRange(out, mask, x *tensor.Matrix, lo, hi int) {
	o, mk, xd := out.Data[lo:hi], mask.Data[lo:hi], x.Data[lo:hi]
	for i, v := range xd {
		b := math.Float32bits(v)
		keep := uint32((int64(b-1) - 0x7f800000) >> 63)
		o[i] = math.Float32frombits(b & keep)
		mk[i] = math.Float32frombits(0x3f800000 & keep)
	}
}

// Forward computes max(x, 0) element-wise.
//
//hotline:hotpath
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := r.out.ResizeNoZero(x.Rows, x.Cols)   // reluRange writes every cell
	mask := r.mask.ResizeNoZero(x.Rows, x.Cols) // and every mask cell
	if par.Serial(len(x.Data), 1) {
		reluRange(out, mask, x, 0, len(x.Data))
	} else {
		par.ForWork(len(x.Data), 1, func(lo, hi int) {
			reluRange(out, mask, x, lo, hi)
		})
	}
	r.fwdRun = true
	return out
}

// Backward gates the incoming gradient by the forward mask.
//
//hotline:hotpath
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if !r.fwdRun {
		panic("nn: ReLU.Backward before Forward")
	}
	gradIn := r.gradIn.ResizeNoZero(gradOut.Rows, gradOut.Cols) // fully overwritten
	tensor.Hadamard(gradIn, gradOut, &r.mask)
	return gradIn
}

// Params returns nil; ReLU is stateless.
func (r *ReLU) Params() []Param { return nil }

// Sigmoid is the logistic activation σ(x) = 1/(1+e⁻ˣ).
type Sigmoid struct {
	out    tensor.Matrix
	gradIn tensor.Matrix
	fwdRun bool
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// SigmoidScalar computes the numerically stable logistic function.
//
//hotline:hotpath
func SigmoidScalar(x float32) float32 {
	if x >= 0 {
		z := float32(math.Exp(-float64(x)))
		return 1 / (1 + z)
	}
	z := float32(math.Exp(float64(x)))
	return z / (1 + z)
}

// Forward computes σ(x) element-wise.
func (s *Sigmoid) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := s.out.ResizeNoZero(x.Rows, x.Cols) // fully overwritten
	for i, v := range x.Data {
		out.Data[i] = SigmoidScalar(v)
	}
	s.fwdRun = true
	return out
}

// Backward computes g·σ(x)·(1-σ(x)) using the cached forward output.
func (s *Sigmoid) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if !s.fwdRun {
		panic("nn: Sigmoid.Backward before Forward")
	}
	gradIn := s.gradIn.ResizeNoZero(gradOut.Rows, gradOut.Cols) // fully overwritten
	for i, g := range gradOut.Data {
		y := s.out.Data[i]
		gradIn.Data[i] = g * y * (1 - y)
	}
	return gradIn
}

// Params returns nil; Sigmoid is stateless.
func (s *Sigmoid) Params() []Param { return nil }
