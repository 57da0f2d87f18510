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
//
// Then every operand family of gemmFamilies over shapes that cross the
// term block and the lane tiles, one-column products included.
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

	// The left factors' zero pattern decides how a block reaches the kernel
	// (read in place, or compacted into a list) and a one-column GEMM runs
	// on the lanes, so the same kernels meet every pattern: left operands
	// with no zero, only zeros of either sign, one zero per 64-term block
	// (first, middle or last), half zeros, rows that switch between none
	// and half, and ±0, denormals, ±Inf and NaN against right operands
	// holding ±Inf. Any NaN matches any NaN here: which one survives when
	// two meet is not pinned.
	for f, fam := range gemmFamilies {
		shape = 0
		for _, m := range []int{1, 9, 120} {
			for _, k := range []int{13, 64, 65, 367} {
				for _, n := range []int{1, 7, 16, 40, 67} {
					shape++
					if testing.Short() && (shape+f)%5 != 0 {
						continue
					}
					for _, kn := range kernels {
						x := fam.left(m, k, rng) // the left operand as the reference reads it, m x k
						a, b := x, fam.right(k, n, rng)
						if kn.transA {
							a = Transpose(x)
						}
						if kn.transB {
							b = Transpose(b)
						}
						want := New(m, n)
						kn.ref(want, a, b)
						for _, workers := range []int{1, 2} {
							got := New(m, n)
							got.Fill(12345.5)
							prev := par.SetWorkers(workers)
							kn.kernel(got, a, b)
							par.SetWorkers(prev)
							for i, v := range want.Data {
								if !sameBits(v, got.Data[i]) {
									t.Fatalf("%s %s %dx%dx%d workers=%d: element %d = %x, reference %x", kn.name, fam.name, m, k, n,
										workers, i, math.Float32bits(got.Data[i]), math.Float32bits(v))
								}
							}
						}
					}
				}
			}
		}
	}
}

// gemmFamily is an operand family of the GEMM differential test: left
// builds the m x k left operand (the inner index runs along a row), right
// the k x n right one.
type gemmFamily struct {
	name        string
	left, right func(rows, cols int, rng *RNG) *Matrix
}

var gemmFamilies = func() []gemmFamily {
	negZero := float32(math.Copysign(0, -1))
	normals := func(rows, cols int, rng *RNG) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			if m.Data[i] = float32(rng.NormFloat64()); m.Data[i] == 0 {
				m.Data[i] = 1
			}
		}
		return m
	}
	// zeroInBlock puts one zero, of either sign, in every termBlock-term
	// block of each row, at the position pick chooses in a block of count.
	zeroInBlock := func(pick func(count int) int) func(rows, cols int, rng *RNG) *Matrix {
		return func(rows, cols int, rng *RNG) *Matrix {
			m := normals(rows, cols, rng)
			for r := range rows {
				for k0 := 0; k0 < cols; k0 += termBlock {
					z := float32(0)
					if rng.Uint64()&1 == 0 {
						z = negZero
					}
					m.Row(r)[k0+pick(min(termBlock, cols-k0))] = z
				}
			}
			return m
		}
	}
	from := func(values []float32) func(rows, cols int, rng *RNG) *Matrix {
		return func(rows, cols int, rng *RNG) *Matrix {
			m := New(rows, cols)
			for i := range m.Data {
				if u := rng.Uint64(); u&3 == 0 {
					m.Data[i] = float32(rng.NormFloat64())
				} else {
					m.Data[i] = values[u>>2%uint64(len(values))]
				}
			}
			return m
		}
	}
	return []gemmFamily{
		{"no zeros", normals, adversarialMatrix},
		{"all zeros", func(rows, cols int, rng *RNG) *Matrix {
			m := New(rows, cols)
			for i := range m.Data {
				if rng.Uint64()&1 == 0 {
					m.Data[i] = negZero
				}
			}
			return m
		}, adversarialMatrix},
		{"zero first in a block", zeroInBlock(func(int) int { return 0 }), adversarialMatrix},
		{"zero mid-block", zeroInBlock(func(c int) int { return c / 2 }), adversarialMatrix},
		{"zero last in a block", zeroInBlock(func(c int) int { return c - 1 }), adversarialMatrix},
		{"half zeros", adversarialMatrix, adversarialMatrix},
		{"rows switch", func(rows, cols int, rng *RNG) *Matrix {
			m := normals(rows, cols, rng)
			for r := 1; r < rows; r += 2 {
				reluColumns(&Matrix{Rows: 1, Cols: cols, Data: m.Row(r)}, cols)
			}
			return m
		}, adversarialMatrix},
		{"specials", from([]float32{
			0, negZero, math.SmallestNonzeroFloat32, -1e-41, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		}), from([]float32{float32(math.Inf(1)), float32(math.Inf(-1))})},
	}
}()

// gemmShapes are the GEMMs the benchmark models run at batch 256: the
// Kaggle top and bottom first layers, a ReLU-fed hidden layer, SYN-MH's
// one-layer 100 -> 1 top and Kaggle's 64 -> 1 output layer; the Kaggle top
// layer again with the interaction output's real zero pattern (its first 16
// columns are the bottom MLP's ReLU outputs) and at the serve request size,
// 32. relu is how many leading columns of the left operand are ReLU outputs
// (about half zeros).
var gemmShapes = []struct {
	m, k, n int
	relu    int
}{
	{256, 367, 64, 0},
	{256, 13, 64, 0},
	{256, 64, 16, 64},
	{256, 100, 1, 100},
	{256, 64, 1, 64},
	{256, 367, 64, 16},
	{32, 367, 64, 0},
}

// gemmName names a shape: m x k x n, and the ReLU-fed columns when only
// some are.
func gemmName(m, k, n, relu int) string {
	if relu > 0 && relu < k {
		return fmt.Sprintf("%dx%dx%d-relu%d", m, k, n, relu)
	}
	return fmt.Sprintf("%dx%dx%d", m, k, n)
}

// benchOperand is a unit-normal matrix, passed through a ReLU when relu.
func benchOperand(rows, cols int, relu bool, rng *RNG) *Matrix {
	m := New(rows, cols)
	NormalInit(m, 1, rng)
	if relu {
		reluColumns(m, cols)
	}
	return m
}

// reluColumns passes the first cols columns of m through a ReLU.
func reluColumns(m *Matrix, cols int) {
	for r := range m.Rows {
		row := m.Row(r)[:cols]
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	}
}

// gemmLeft is a shape's left operand: unit normals, the first relu columns
// through a ReLU.
func gemmLeft(rows, cols, relu int, rng *RNG) *Matrix {
	m := benchOperand(rows, cols, false, rng)
	reluColumns(m, relu)
	return m
}

// benchKernel times fn at one worker (the repository benchmark's setting:
// these measure the kernels, not the fork) and reports its MAC rate. One
// untimed call comes first: a kernel's first call may size its scratch
// (MatMulTransB packs wT), which no later call repeats, and averaged into
// B/op it would read as a per-call allocation.
func benchKernel(b *testing.B, macs int, fn func()) {
	defer par.SetWorkers(par.SetWorkers(1))
	b.ReportAllocs()
	fn()
	for b.Loop() {
		fn()
	}
	b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s")
}

// BenchmarkMatMul is Linear.Forward's GEMM: x (m x k) times W (k x n).
func BenchmarkMatMul(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(gemmName(s.m, s.k, s.n, s.relu), func(b *testing.B) {
			rng := NewRNG(1)
			x := gemmLeft(s.m, s.k, s.relu, rng)
			w := benchOperand(s.k, s.n, false, rng)
			dst := New(s.m, s.n)
			benchKernel(b, s.m*s.k*s.n, func() { MatMul(dst, x, w) })
		})
	}
}

// BenchmarkMatMulTransA is the weight gradient xᵀ (k x m) times g (m x n).
func BenchmarkMatMulTransA(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(gemmName(s.m, s.k, s.n, s.relu), func(b *testing.B) {
			rng := NewRNG(1)
			x := gemmLeft(s.m, s.k, s.relu, rng)
			g := benchOperand(s.m, s.n, false, rng)
			dst := New(s.k, s.n)
			benchKernel(b, s.m*s.k*s.n, func() { MatMulTransA(dst, x, g) })
		})
	}
}

// BenchmarkMatMulTransB is the input gradient g (m x n) times Wᵀ (n x k).
func BenchmarkMatMulTransB(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(gemmName(s.m, s.k, s.n, s.relu), func(b *testing.B) {
			rng := NewRNG(1)
			g := benchOperand(s.m, s.n, false, rng)
			w := benchOperand(s.k, s.n, false, rng)
			dst := New(s.m, s.k)
			var wT Matrix
			benchKernel(b, s.m*s.k*s.n, func() { MatMulTransB(dst, g, w, &wT) })
		})
	}
}
