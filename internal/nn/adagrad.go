package nn

import (
	"math"

	"hotline/internal/tensor"
)

// Adagrad is the adaptive-gradient optimizer the DLRM reference offers for
// production training: each parameter's learning rate shrinks with the
// accumulated squared gradient.
//
// Unlike SGD, Adagrad is non-linear in the gradient, so Hotline's executor
// must accumulate the popular and non-popular µ-batch gradients and apply
// ONE update per mini-batch (as this repository's executors do). Applying
// per-µ-batch updates would change the accumulator trajectory and break the
// paper's parity guarantee — tested in adagrad_test.go.
type Adagrad struct {
	LR     float32
	Eps    float32
	params []Param
	accum  []*tensor.Matrix // squared-gradient accumulators
}

// NewAdagrad returns an optimizer over params.
func NewAdagrad(params []Param, lr float32) *Adagrad {
	a := &Adagrad{LR: lr, Eps: 1e-8, params: params}
	a.accum = make([]*tensor.Matrix, len(params))
	for i, p := range params {
		a.accum[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// Accumulators returns a fresh list of the squared-gradient accumulators,
// one per parameter in the order NewAdagrad was given them.
func (a *Adagrad) Accumulators() []*tensor.Matrix { return append([]*tensor.Matrix(nil), a.accum...) }

// Step applies p -= lr·g/√(G+eps) with G += g² element-wise.
//
//hotline:hotpath
func (a *Adagrad) Step() {
	for i, p := range a.params {
		acc := a.accum[i]
		for j, g := range p.Grad.Data {
			acc.Data[j] += float32(g * g)
			p.Value.Data[j] -= a.LR * g / float32(math.Sqrt(float64(acc.Data[j]+a.Eps)))
		}
	}
}
