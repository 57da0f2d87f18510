package nn

import (
	"fmt"

	"hotline/internal/tensor"
)

// MLP is a stack of Linear layers with ReLU between them. When
// finalActivation is true the last Linear is also followed by a ReLU
// (DLRM bottom MLPs end in ReLU; top MLPs end in a raw logit).
type MLP struct {
	Sizes  []int
	layers []Layer

	params []Param // memoised Params() result (layer Grad pointers are stable)
}

// NewMLP builds an MLP from the layer sizes, e.g. {13, 512, 256, 64}.
// relUAfterLast controls whether the output of the final Linear passes
// through a ReLU.
func NewMLP(sizes []int, reluAfterLast bool, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs >= 2 sizes, got %v", sizes))
	}
	m := &MLP{Sizes: sizes}
	for i := 0; i < len(sizes)-1; i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], rng))
		last := i == len(sizes)-2
		if !last || reluAfterLast {
			m.layers = append(m.layers, NewReLU())
		}
	}
	return m
}

// Shadow returns an MLP sharing m's parameters with private gradient
// accumulators and forward caches (see Linear.Shadow).
func (m *MLP) Shadow() *MLP {
	s := &MLP{Sizes: m.Sizes}
	for _, l := range m.layers {
		switch v := l.(type) {
		case *Linear:
			s.layers = append(s.layers, v.Shadow())
		case *ReLU:
			s.layers = append(s.layers, NewReLU())
		default:
			panic(fmt.Sprintf("nn: MLP.Shadow: unsupported layer %T", l))
		}
	}
	return s
}

// Forward runs the stack on a batch.
//
//hotline:hotpath
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the reverse pass through the stack.
//
//hotline:hotpath
func (m *MLP) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		gradOut = m.layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardParams is Backward for a stack whose input gradient nobody reads
// (a bottom MLP fed by the dense features): every parameter gradient
// accumulates exactly as under Backward, and the first layer computes no
// input gradient.
//
//hotline:hotpath
func (m *MLP) BackwardParams(gradOut *tensor.Matrix) {
	for i := len(m.layers) - 1; i > 0; i-- {
		gradOut = m.layers[i].Backward(gradOut)
	}
	m.layers[0].(*Linear).BackwardParams(gradOut)
}

// Params returns the parameters of every layer in order. The slice is
// memoised (parameter and gradient storage is stable for the life of the
// MLP), so the per-step optimizer path performs no allocations.
func (m *MLP) Params() []Param {
	if m.params != nil {
		return m.params
	}
	var ps []Param
	for i, l := range m.layers {
		for _, p := range l.Params() {
			p.Name = fmt.Sprintf("mlp[%d].%s", i, p.Name)
			ps = append(ps, p)
		}
	}
	m.params = ps
	return ps
}

// FLOPs returns the multiply-accumulate count of one forward pass for a
// batch of the given size; the performance layer uses this for cost models.
func (m *MLP) FLOPs(batch int) int64 {
	var f int64
	for i := 0; i < len(m.Sizes)-1; i++ {
		f += 2 * int64(batch) * int64(m.Sizes[i]) * int64(m.Sizes[i+1])
	}
	return f
}

// MLPFLOPs computes forward MAC count for an architecture without building it.
func MLPFLOPs(sizes []int, batch int) int64 {
	var f int64
	for i := 0; i < len(sizes)-1; i++ {
		f += 2 * int64(batch) * int64(sizes[i]) * int64(sizes[i+1])
	}
	return f
}
