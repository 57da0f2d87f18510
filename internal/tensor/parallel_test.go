package tensor

import (
	"testing"

	"hotline/internal/par"
)

// randMatrix fills a matrix with normal values, zeroing ~10% of entries so
// the skip-zero fast paths run in both serial and parallel forms.
func randMatrix(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float32() < 0.1 {
			continue
		}
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// The determinism contract of internal/par: every kernel produces
// bit-identical results for every worker count. Odd shapes stress shard
// boundary handling; none of the sizes is a multiple of the kernels' block of
// four, and the second set has an inner dimension that leaves a remainder of
// three and fewer output columns than one vector, on enough rows for every
// worker count to fork; the third has enough elements for the element-wise
// kernels to fork too. Both the vector kernel and the generic loops run.
func TestKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	onBothPaths(t, testKernelsBitIdenticalAcrossWorkerCounts)
}

func testKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{{97, 53, 61}, {4100, 35, 2}, {2100, 260, 1}} {
		rng := NewRNG(7)
		a := randMatrix(s.m, s.k, rng)
		b := randMatrix(s.k, s.n, rng)
		c := randMatrix(s.m, s.n, rng)
		d := randMatrix(s.m, s.k, rng)
		e := randMatrix(s.n, s.k, rng)

		type result struct {
			mm, mta, mtb, axpy, had *Matrix
			sums                    []float32
		}
		run := func(workers int) result {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			r := result{
				mm:   New(s.m, s.n),
				mta:  New(s.k, s.n), // aᵀ x c
				mtb:  New(s.m, s.n), // a x eᵀ
				axpy: a.Clone(),
				had:  New(s.m, s.k),
				sums: make([]float32, s.n),
			}
			MatMul(r.mm, a, b)
			MatMulTransA(r.mta, a, c)
			MatMulTransB(r.mtb, a, e, &Matrix{})
			AxpyInto(r.axpy, 0.5, d)
			Hadamard(r.had, a, d)
			for i := range r.sums {
				r.sums[i] = 0.25 // non-zero start: SumRowsInto accumulates
			}
			SumRowsInto(r.sums, c)
			return r
		}

		want := run(1)
		for _, workers := range []int{2, 3, 8} {
			got := run(workers)
			pairs := []struct {
				name string
				a, b *Matrix
			}{
				{"MatMul", want.mm, got.mm},
				{"MatMulTransA", want.mta, got.mta},
				{"MatMulTransB", want.mtb, got.mtb},
				{"AxpyInto", want.axpy, got.axpy},
				{"Hadamard", want.had, got.had},
			}
			for _, p := range pairs {
				if _, ok := bitsEqual(p.a, p.b); !ok {
					t.Fatalf("%s %dx%dx%d: workers=%d differs from workers=1", p.name, s.m, s.k, s.n, workers)
				}
			}
			for i := range want.sums {
				if want.sums[i] != got.sums[i] {
					t.Fatalf("SumRowsInto[%d]: workers=%d %v != workers=1 %v",
						i, workers, got.sums[i], want.sums[i])
				}
			}
		}
	}
}
