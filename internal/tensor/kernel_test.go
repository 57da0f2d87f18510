package tensor

import (
	"fmt"
	"math"
	"testing"

	"hotline/internal/par"
)

// The references below are the GEMM family's bit-exact specification: one
// output element at a time, products added in ascending inner index, each
// product rounded to float32 before its add (the conversion forbids a fused
// multiply-add), a left factor that compares equal to zero skipped in MatMul
// and MatMulTransA and never in MatMulTransB. The blocked kernels may compute
// independent elements in any order but must reproduce these chains exactly.

func refMatMul(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var d float32
			for k := 0; k < a.Cols; k++ {
				if aik := a.At(i, k); aik != 0 {
					d += float32(aik * b.At(k, j))
				}
			}
			dst.Set(i, j, d)
		}
	}
}

func refMatMulTransA(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var d float32
			for r := 0; r < a.Rows; r++ {
				if ari := a.At(r, i); ari != 0 {
					d += float32(ari * b.At(r, j))
				}
			}
			dst.Set(i, j, d)
		}
	}
}

func refMatMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var d float32
			for k := 0; k < a.Cols; k++ {
				d += float32(a.At(i, k) * b.At(j, k))
			}
			dst.Set(i, j, d)
		}
	}
}

// adversarialMatrix is about half exact zeros (an eighth of them -0, which
// the zero skip must treat like +0), one value in 32 a denormal, the rest
// unit normals: the inputs on which a reordered chain, a dropped skip or a
// fused multiply-add shows up in the low bits.
func adversarialMatrix(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
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

func bitsEqual(a, b *Matrix) (int, bool) {
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGEMMFamilyMatchesReference compares the three kernels with their
// references bit for bit over every rows x inner x cols combination of
// sizes that straddle the block widths (and hold the models' own K = 13,
// N = 1 and K = 367; the output width also takes 7, 8 and 9, one vector and
// its neighbours), serially and sharded over two workers, on the vector
// kernel and on the generic loops.
func TestGEMMFamilyMatchesReference(t *testing.T) { onBothPaths(t, testGEMMFamilyMatchesReference) }

func testGEMMFamilyMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 13, 16, 64, 100, 367}
	widths := append([]int{7, 8, 9}, sizes...)
	// The output is rows x cols in all three; inner is the reduced dimension.
	kernels := []struct {
		name           string
		kernel, ref    func(dst, a, b *Matrix)
		transA, transB bool
	}{
		{"MatMul", MatMul, refMatMul, false, false},
		{"MatMulTransA", MatMulTransA, refMatMulTransA, true, false},
		{"MatMulTransB", func(dst, a, b *Matrix) { MatMulTransB(dst, a, b, &Matrix{}) }, refMatMulTransB, false, true},
	}
	rng := NewRNG(13)
	shape := 0
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range widths {
				shape++
				// The race detector slows the kernels about tenfold: the
				// short run keeps every seventh shape (7 is coprime to the
				// grid's 9 and 12, so every size still appears on every
				// axis) and leaves the 10M-MAC cubes to the full run.
				if testing.Short() && (shape%7 != 0 || m*k*n > 4<<20) {
					continue
				}
				for _, kn := range kernels {
					ar, ac, br, bc := m, k, k, n
					if kn.transA {
						ar, ac = k, m
					}
					if kn.transB {
						br, bc = n, k
					}
					a := adversarialMatrix(ar, ac, rng)
					b := adversarialMatrix(br, bc, rng)
					want := New(m, n)
					kn.ref(want, a, b)
					for _, workers := range []int{1, 2} {
						got := New(want.Rows, want.Cols)
						got.Fill(float32(math.NaN())) // the kernel owns every cell
						prev := par.SetWorkers(workers)
						kn.kernel(got, a, b)
						par.SetWorkers(prev)
						if i, ok := bitsEqual(want, got); !ok {
							t.Fatalf("%s %dx%dx%d workers=%d: element %d = %x, reference %x", kn.name, m, k, n, workers,
								i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// gemmShapes are the GEMMs the benchmark models run at batch 256: the
// Kaggle top and bottom first layers, a ReLU-fed hidden layer, and SYN-MH's
// one-layer 100 -> 1 top. relu marks a left operand that is a ReLU output
// (about half zeros).
var gemmShapes = []struct {
	m, k, n int
	relu    bool
}{
	{256, 367, 64, false},
	{256, 13, 64, false},
	{256, 64, 16, true},
	{256, 100, 1, true},
}

// benchOperand is a unit-normal matrix, passed through a ReLU when relu.
func benchOperand(rows, cols int, relu bool, rng *RNG) *Matrix {
	m := New(rows, cols)
	NormalInit(m, 1, rng)
	if relu {
		for i, v := range m.Data {
			if v < 0 {
				m.Data[i] = 0
			}
		}
	}
	return m
}

// benchKernel times fn at one worker (the repository benchmark's setting:
// these measure the kernels, not the fork) and reports its MAC rate.
func benchKernel(b *testing.B, macs int, fn func()) {
	defer par.SetWorkers(par.SetWorkers(1))
	b.ReportAllocs()
	for b.Loop() {
		fn()
	}
	b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s")
}

// BenchmarkMatMul is Linear.Forward's GEMM: x (m x k) times W (k x n).
func BenchmarkMatMul(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := NewRNG(1)
			x := benchOperand(s.m, s.k, s.relu, rng)
			w := benchOperand(s.k, s.n, false, rng)
			dst := New(s.m, s.n)
			benchKernel(b, s.m*s.k*s.n, func() { MatMul(dst, x, w) })
		})
	}
}

// BenchmarkMatMulTransA is the weight gradient xᵀ (k x m) times g (m x n).
func BenchmarkMatMulTransA(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := NewRNG(1)
			x := benchOperand(s.m, s.k, s.relu, rng)
			g := benchOperand(s.m, s.n, false, rng)
			dst := New(s.k, s.n)
			benchKernel(b, s.m*s.k*s.n, func() { MatMulTransA(dst, x, g) })
		})
	}
}

// BenchmarkMatMulTransB is the input gradient g (m x n) times Wᵀ (n x k).
func BenchmarkMatMulTransB(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := NewRNG(1)
			g := benchOperand(s.m, s.n, false, rng)
			w := benchOperand(s.k, s.n, false, rng)
			dst := New(s.m, s.k)
			var wT Matrix
			benchKernel(b, s.m*s.k*s.n, func() { MatMulTransB(dst, g, w, &wT) })
		})
	}
}
