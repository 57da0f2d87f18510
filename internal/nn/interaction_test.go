package nn

import (
	"fmt"
	"math"
	"strings"
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

	// The layer runs groups of eight samples, one in each vector lane: batches
	// that leave one to seven samples in the last group, at the models'
	// shapes, at two vectors and at a dimension that is not a multiple of 8.
	for _, batch := range []int{1, 7, 9, 15, 17} {
		for _, s := range []struct{ numVec, dim int }{{27, 16}, {9, 64}, {2, 1}, {5, 13}} {
			inputs := make([]*tensor.Matrix, s.numVec)
			for i := range inputs {
				inputs[i] = adversarialMatrix(batch, s.dim, rng)
			}
			gradOut := adversarialMatrix(batch, s.dim+s.numVec*(s.numVec-1)/2, rng)
			requireInteractionMatches(t, fmt.Sprintf("batch=%d vectors=%d dim=%d", batch, s.numVec, s.dim), s.dim, inputs, gradOut)
		}
	}

	// A zero pair gradient meeting an infinite input component adds nothing:
	// vector 3 is infinite in component 5, and in the even samples every one
	// of its pairs has a zero gradient (+0 or -0), so there every gradient
	// stays finite (0 x Inf would be NaN); the odd samples keep their
	// gradients, so each group mixes both in its lanes. Vectors 4 and 6 are
	// +Inf and -Inf in component 2 with non-zero gradients: there Inf meets
	// Inf, and only "same bits, or both NaN" can be asked of the result.
	const batch, numVec, dim = 11, 9, 16
	inputs := make([]*tensor.Matrix, numVec)
	for i := range inputs {
		inputs[i] = adversarialMatrix(batch, dim, rng)
	}
	gradOut := adversarialMatrix(batch, dim+numVec*(numVec-1)/2, rng)
	negZero := float32(math.Copysign(0, -1))
	for b := range batch {
		inputs[3].Set(b, 5, float32(math.Inf(1)))
		inputs[4].Set(b, 2, float32(math.Inf(1)))
		inputs[6].Set(b, 2, float32(math.Inf(-1)))
		for u := range numVec {
			if u != 3 && b%2 == 0 {
				hi, lo := max(u, 3), min(u, 3)
				gradOut.Set(b, dim+hi*(hi-1)/2+lo, [2]float32{0, negZero}[(b+u)%2])
			}
		}
	}
	grads := requireInteractionMatches(t, "infinite component under a zero gradient", dim, inputs, gradOut)
	for v, g := range grads {
		for b := 0; b < batch; b += 2 {
			for c, x := range g.Row(b) {
				if c != 2 && (math.IsInf(float64(x), 0) || x != x) {
					t.Fatalf("grad %d sample %d component %d = %v: a zero gradient met the infinity", v, b, c, x)
				}
			}
		}
	}

	// Vector 0's gradient starts from the dense pass-through. Where that is
	// -0 and every pair gradient of vector 0 is zero, the chain adds nothing
	// and must stay -0 (+0 + -0 would be +0). Samples 0-3 of each group of
	// eight have only zero pair gradients for vector 0; samples 4-7 skip its
	// first two terms and take the rest, so a group mixes both in its lanes.
	for i := range inputs {
		inputs[i] = adversarialMatrix(batch, dim, rng)
	}
	gradOut = adversarialMatrix(batch, dim+numVec*(numVec-1)/2, rng)
	for b := range batch {
		for c := range dim {
			gradOut.Set(b, c, negZero)
		}
		for u := 1; u < numVec; u++ {
			g := gradOut.At(b, dim+u*(u-1)/2)
			if b%8 < 4 || u <= 2 {
				g = [2]float32{0, negZero}[u%2]
			} else if g == 0 {
				g = 1
			}
			gradOut.Set(b, dim+u*(u-1)/2, g)
		}
	}
	grads = requireInteractionMatches(t, "-0 dense gradient under skipped terms", dim, inputs, gradOut)
	for b := range batch {
		if b%8 >= 4 {
			continue
		}
		for c, x := range grads[0].Row(b) {
			if math.Float32bits(x) != math.Float32bits(negZero) {
				t.Fatalf("grad 0 sample %d component %d = %x, want -0", b, c, math.Float32bits(x))
			}
		}
	}
}

// requireInteractionMatches runs Forward and Backward at one and at two
// workers and compares them with the references element by element: the
// same bits, or NaN on both sides (which NaN survives when two meet is not
// pinned). It returns the gradients of the last run.
func requireInteractionMatches(t *testing.T, what string, dim int, inputs []*tensor.Matrix, gradOut *tensor.Matrix) []*tensor.Matrix {
	t.Helper()
	wantOut := refInteractionForward(dim, inputs)
	wantGrads := refInteractionBackward(dim, inputs, gradOut)
	same := func(what string, want, got *tensor.Matrix) {
		t.Helper()
		if want.Rows != got.Rows || want.Cols != got.Cols {
			t.Fatalf("%s: shape %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, w := range want.Data {
			if g := got.Data[i]; math.Float32bits(w) != math.Float32bits(g) && (w == w || g == g) {
				t.Fatalf("%s: element %d = %x, reference %x", what, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
	var grads []*tensor.Matrix
	for _, workers := range []int{1, 2} {
		prev := par.SetWorkers(workers)
		di := NewDotInteraction(dim, len(inputs)-1)
		out := di.Forward(inputs)
		grads = di.Backward(gradOut)
		par.SetWorkers(prev)
		at := fmt.Sprintf("%s workers=%d", what, workers)
		same(at+" forward", wantOut, out)
		for v := range grads {
			same(fmt.Sprintf("%s grad %d", at, v), wantGrads[v], grads[v])
		}
	}
	return grads
}

// TestDotInteractionBackwardChecksGradShape: Backward takes the forward batch
// x OutWidth() and panics with a shape message on anything else — too few
// or too many columns, too few or too many rows — before any kernel reads
// the gradient.
func TestDotInteractionBackwardChecksGradShape(t *testing.T) {
	const batch, dim, numVec = 9, 4, 3
	di := NewDotInteraction(dim, numVec-1)
	inputs := make([]*tensor.Matrix, numVec)
	for i := range inputs {
		inputs[i] = tensor.New(batch, dim)
	}
	di.Forward(inputs)
	w := di.OutWidth()
	for _, shape := range [][2]int{{batch, w - 1}, {batch, w + 1}, {batch - 1, w}, {batch + 1, w}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "gradOut is") {
					t.Errorf("gradOut %dx%d (want %dx%d): panic %q, want the shape message", shape[0], shape[1], batch, w, msg)
				}
			}()
			di.Backward(tensor.New(shape[0], shape[1]))
		}()
	}
	di.Backward(tensor.New(batch, w)) // the right shape still runs
}

// BenchmarkDotInteraction runs the layer at one worker at the benchmark
// models' shapes: Kaggle's 27 vectors of dimension 16 and SYN-MH's 9 of
// dimension 64, at the training batch of 256 and (the b32 cases) at the
// repository benchmark's serve request of 32 samples, whose padded groups
// weigh more. A MAC is one multiply-add of a pair's dot product (forward)
// or of one of its two gradient updates (backward).
func BenchmarkDotInteraction(b *testing.B) {
	for _, batch := range []int{256, 32} {
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
			shape := fmt.Sprintf("%dx%d", s.numVec, s.dim)
			if batch != 256 {
				shape += fmt.Sprintf("/b%d", batch)
			}
			run := func(name string, macs int, fn func()) {
				b.Run(shape+"/"+name, func(b *testing.B) {
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
}
