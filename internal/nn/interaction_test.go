package nn

import (
	"fmt"
	"math"
	"testing"

	"hotline/internal/par"
	"hotline/internal/tensor"
)

// The references below are the interaction layer's bit-exact specification,
// written pair by pair: a pair's dot product adds its products in ascending
// index; the backward pass visits the pairs in output order and scatters each
// non-zero output gradient into both vectors' gradients. Every product is
// rounded to float32 before its add (the conversion forbids a fused
// multiply-add). The blocked kernels must reproduce each element's chain.

func refInteractionForward(dim int, inputs []*tensor.Matrix) *tensor.Matrix {
	n := len(inputs)
	out := tensor.New(inputs[0].Rows, dim+n*(n-1)/2)
	for b := 0; b < out.Rows; b++ {
		row := out.Row(b)
		copy(row, inputs[0].Row(b))
		k := dim
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				var dot float32
				for t := 0; t < dim; t++ {
					dot += float32(inputs[i].At(b, t) * inputs[j].At(b, t))
				}
				row[k] = dot
				k++
			}
		}
	}
	return out
}

func refInteractionBackward(dim int, inputs []*tensor.Matrix, gradOut *tensor.Matrix) []*tensor.Matrix {
	n := len(inputs)
	grads := make([]*tensor.Matrix, n)
	for i := range grads {
		grads[i] = tensor.New(gradOut.Rows, dim)
	}
	for b := 0; b < gradOut.Rows; b++ {
		grow := gradOut.Row(b)
		copy(grads[0].Row(b), grow[:dim])
		k := dim
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				g := grow[k]
				k++
				if g == 0 {
					continue
				}
				for t := 0; t < dim; t++ {
					grads[i].Row(b)[t] += float32(g * inputs[j].At(b, t))
					grads[j].Row(b)[t] += float32(g * inputs[i].At(b, t))
				}
			}
		}
	}
	return grads
}

// adversarialMatrix is about half exact zeros (an eighth of them -0), one
// value in 32 a denormal, the rest unit normals; see the tensor package's
// differential test.
func adversarialMatrix(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		u := rng.Uint64()
		switch {
		case u&1 == 0:
			if u&14 == 0 {
				m.Data[i] = float32(math.Copysign(0, -1))
			}
		case u&62 == 0:
			m.Data[i] = math.Float32frombits(uint32(u>>32)&0x807fffff | 1)
		default:
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

func requireBitsEqual(t *testing.T, what string, want, got *tensor.Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float32bits(w) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %x, reference %x", what, i, math.Float32bits(got.Data[i]), math.Float32bits(w))
		}
	}
}

// TestDotInteractionMatchesReference compares Forward and Backward with the
// pair-by-pair references bit for bit, serially and sharded over two
// workers, at the models' vector counts and dimensions, at two vectors, at
// dimension 1, and past the 64 terms the layer hands the kernel at once (66
// vectors for Backward's chains, dimension 70 for Forward's).
func TestDotInteractionMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(17)
	for _, numVec := range []int{2, 9, 27, 66} {
		for _, dim := range []int{1, 16, 64, 70} {
			// Enough samples for the two-worker run to fork (par shards a
			// loop of 2<<18 operations or more; the layer counts
			// numVec*numVec*dim a sample).
			batch := max(70, 2<<18/(numVec*numVec*dim)+1)
			inputs := make([]*tensor.Matrix, numVec)
			for i := range inputs {
				inputs[i] = adversarialMatrix(batch, dim, rng)
			}
			gradOut := adversarialMatrix(batch, dim+numVec*(numVec-1)/2, rng)
			wantOut := refInteractionForward(dim, inputs)
			wantGrads := refInteractionBackward(dim, inputs, gradOut)
			for _, workers := range []int{1, 2} {
				prev := par.SetWorkers(workers)
				di := NewDotInteraction(dim, numVec-1)
				out := di.Forward(inputs)
				grads := di.Backward(gradOut)
				par.SetWorkers(prev)
				what := fmt.Sprintf("vectors=%d dim=%d workers=%d", numVec, dim, workers)
				requireBitsEqual(t, what+" forward", wantOut, out)
				for v := range grads {
					requireBitsEqual(t, fmt.Sprintf("%s grad %d", what, v), wantGrads[v], grads[v])
				}
			}
		}
	}
}

// BenchmarkDotInteraction runs the layer at batch 256 and one worker at the
// benchmark models' shapes: Kaggle's 27 vectors of dimension 16 and SYN-MH's
// 9 of dimension 64. A MAC is one multiply-add of a pair's dot product
// (forward) or of one of its two gradient updates (backward).
func BenchmarkDotInteraction(b *testing.B) {
	const batch = 256
	for _, s := range []struct{ numVec, dim int }{{27, 16}, {9, 64}} {
		rng := tensor.NewRNG(1)
		inputs := make([]*tensor.Matrix, s.numVec)
		for i := range inputs {
			inputs[i] = tensor.New(batch, s.dim)
			tensor.NormalInit(inputs[i], 1, rng)
		}
		di := NewDotInteraction(s.dim, s.numVec-1)
		gradOut := tensor.New(batch, di.OutWidth())
		tensor.NormalInit(gradOut, 1, rng)
		macs := batch * s.numVec * (s.numVec - 1) / 2 * s.dim
		run := func(name string, macs int, fn func()) {
			b.Run(fmt.Sprintf("%dx%d/%s", s.numVec, s.dim, name), func(b *testing.B) {
				defer par.SetWorkers(par.SetWorkers(1))
				di.Forward(inputs)
				b.ReportAllocs()
				for b.Loop() {
					fn()
				}
				b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s")
			})
		}
		run("Forward", macs, func() { di.Forward(inputs) })
		run("Backward", 2*macs, func() { di.Backward(gradOut) })
	}
}
