package nn

import "hotline/internal/tensor"

// SGD is a plain stochastic-gradient-descent optimizer over dense params.
// (DLRM's reference implementation also uses plain SGD for dense layers;
// sparse embedding rows are updated by embedding.Bag.ApplySparseSGD.)
type SGD struct {
	LR     float32
	params []Param
}

// NewSGD returns an optimizer over params with the given learning rate.
func NewSGD(params []Param, lr float32) *SGD {
	return &SGD{LR: lr, params: params}
}

// Step applies p.Value -= lr·p.Grad to every parameter.
//
//hotline:hotpath
func (s *SGD) Step() {
	for _, p := range s.params {
		tensor.AxpyInto(p.Value, -s.LR, p.Grad)
	}
}
