package tensor

import (
	"fmt"
	"math"

	"hotline/internal/par"
)

// Matrix is a dense row-major float32 matrix.
//
// The zero value is an empty 0x0 matrix. Data has length Rows*Cols; element
// (r, c) lives at Data[r*Cols+c].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows x cols matrix without copying.
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Resize reshapes m to rows x cols and zeroes every element, reusing the
// existing backing array when its capacity suffices. This is the scratch
// substrate of the steady-state training loop: per-step buffers are resized
// instead of reallocated, so after warm-up a step performs no allocations.
//
//hotline:hotpath
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		// Grow geometrically: µ-batch sizes jitter step to step, and exact
		// sizing would re-allocate on every new maximum instead of letting
		// the scratch buffer converge after a couple of steps.
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// ResizeNoZero is Resize without the clearing pass, for destinations whose
// every element is about to be overwritten (or that the consuming kernel
// zeroes itself, like MatMul). Reusing a buffer through Resize would memset
// it twice per step on the hot path.
//
//hotline:hotpath
func (m *Matrix) ResizeNoZero(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Reset truncates m to 0x0, keeping the backing array for later Resize.
func (m *Matrix) Reset() {
	m.Rows, m.Cols = 0, 0
	m.Data = m.Data[:0]
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (no copy) of row r.
//
//hotline:hotpath
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom resizes m to src's shape and copies src's contents into it,
// reusing m's backing array when possible.
//
//hotline:hotpath
func (m *Matrix) CopyFrom(src *Matrix) *Matrix {
	n := src.Rows * src.Cols
	if cap(m.Data) < n {
		// Same geometric growth as Resize: µ-batch sizes jitter, and exact
		// sizing would re-allocate on every new maximum.
		newCap := n
		if c := 2 * cap(m.Data); c > newCap {
			newCap = c
		}
		m.Data = make([]float32, n, newCap) //hotline:allow hotalloc geometric growth; scratch converges after warm-up (0 allocs/op gated)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = src.Rows, src.Cols
	copy(m.Data, src.Data)
	return m
}

// Zero sets every element to 0 in place.
//
//hotline:hotpath
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
//
//hotline:hotpath
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have identical shape and contents.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if other.Data[i] != v {
			return false
		}
	}
	return true
}

// String renders a compact shape descriptor (not the contents).
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// The hot kernels below branch on par.Serial and call their range body
// directly in the serial case: a closure passed to par.ForWork escapes to
// the heap at its creation point, so building one only on the parallel
// branch keeps the steady-state training loop allocation-free.

// Axpy4 adds four scaled rows to dst: dst[j] += a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j], in that order. It is the micro-kernel of MatMul,
// MatMulTransA and the interaction backward pass: each destination element
// is loaded and stored once per four updates, and its additions happen in
// argument order with every product rounded to float32 first (the conversion
// forbids a fused multiply-add), so the result is bit-equal to four
// single-term passes. The b rows must be at least len(dst) long.
//
//hotline:hotpath
func Axpy4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	// Reslicing to dst's length lets the compiler drop the bounds checks in
	// the loop.
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j, d := range dst {
		d += float32(a0 * b0[j])
		d += float32(a1 * b1[j])
		d += float32(a2 * b2[j])
		d += float32(a3 * b3[j])
		dst[j] = d
	}
}

// Axpy computes dst[j] += a*b[j]: one term of the chain Axpy4 applies four
// at a time, for the remainder of a block. b must be at least len(dst) long.
//
//hotline:hotpath
func Axpy(dst, b []float32, a float32) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += float32(a * b[j])
	}
}

// NonZero returns 1 when a != 0 and 0 when a is +0 or -0 (NaN counts as
// non-zero, as it does for the comparison), without a branch.
//
//hotline:hotpath
func NonZero(a float32) int {
	mag := math.Float32bits(a) << 1 // all bits but the sign
	return int((mag | -mag) >> 31)
}

// axpyRowsRange computes rows [lo, hi) of dst = x x b (dst rows pre-zeroed),
// where element (i, k) of the left operand x is a[i*rowStride+k*innerStride]:
// a itself for MatMul, its transpose for MatMulTransA. A term whose left
// factor compares equal to zero (either sign) is skipped, never added; the
// non-zero terms of a row are compacted into blocks of four for Axpy4, in
// ascending k, and the remainder goes through Axpy one term at a time, so
// every output element's addition chain is that of the k-ascending
// one-term-at-a-time loop whatever the zero pattern.
//
//hotline:hotpath
func axpyRowsRange(dst *Matrix, a []float32, rowStride, innerStride int, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		var (
			off [4]int // pending terms: offset of the b row, left factor
			fac [4]float32
			p   int
		)
		at := i * rowStride
		for k := 0; k < b.Rows; k++ {
			aik := a[at]
			at += innerStride
			// Branch-free compaction: the slot is written either way and
			// kept only when the factor is non-zero. A ReLU output's zeros
			// fall at random, so a branch on them mispredicts every other
			// term.
			off[p&3], fac[p&3] = k*n, aik
			if p += NonZero(aik); p == 4 {
				Axpy4(drow, b.Data[off[0]:off[0]+n], b.Data[off[1]:off[1]+n], b.Data[off[2]:off[2]+n], b.Data[off[3]:off[3]+n],
					fac[0], fac[1], fac[2], fac[3])
				p = 0
			}
		}
		for q := 0; q < p; q++ {
			Axpy(drow, b.Data[off[q&3]:off[q&3]+n], fac[q&3])
		}
	}
}

// MatMul computes dst = a x b. dst must be a.Rows x b.Cols and must not
// alias a or b.
//
//hotline:hotpath
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	perRow := 2 * int64(a.Cols) * int64(b.Cols)
	if par.Serial(a.Rows, perRow) {
		axpyRowsRange(dst, a.Data, a.Cols, 1, b, 0, a.Rows)
		return
	}
	par.ForWork(a.Rows, perRow, func(lo, hi int) {
		axpyRowsRange(dst, a.Data, a.Cols, 1, b, lo, hi)
	})
}

// Dot4 returns the dot products of x with y0..y3: the micro-kernel of
// MatMulTransB and the interaction forward pass. The four sums are
// independent chains, each adding its products in ascending index with every
// product rounded to float32 first, so each is bit-equal to the plain
// one-sum loop; carrying four shares the loads of x and lets the additions
// overlap. The y rows must be at least len(x) long.
//
//hotline:hotpath
func Dot4(x, y0, y1, y2, y3 []float32) (s0, s1, s2, s3 float32) {
	y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
	for k, v := range x {
		s0 += float32(v * y0[k])
		s1 += float32(v * y1[k])
		s2 += float32(v * y2[k])
		s3 += float32(v * y3[k])
	}
	return
}

// matMulTransBRange computes rows [lo, hi) of dst = a x bᵀ, four output
// columns at a time. A last block of fewer than four repeats b's last row:
// the duplicate chains are computed and dropped, which costs nothing next to
// running the remainder as single latency-bound chains.
//
//hotline:hotpath
func matMulTransBRange(dst, a, b *Matrix, lo, hi int) {
	last := b.Rows - 1
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			d := drow[j : j+4 : j+4]
			d[0], d[1], d[2], d[3] = Dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		}
		if j < b.Rows {
			var d [4]float32
			d[0], d[1], d[2], d[3] = Dot4(arow, b.Row(j), b.Row(min(j+1, last)), b.Row(min(j+2, last)), b.Row(last))
			copy(drow[j:], d[:])
		}
	}
}

// MatMulTransB computes dst = a x bᵀ. dst must be a.Rows x b.Rows.
//
//hotline:hotpath
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	perRow := 2 * int64(a.Cols) * int64(b.Rows)
	if par.Serial(a.Rows, perRow) {
		matMulTransBRange(dst, a, b, 0, a.Rows)
		return
	}
	par.ForWork(a.Rows, perRow, func(lo, hi int) {
		matMulTransBRange(dst, a, b, lo, hi)
	})
}

// MatMulTransA computes dst = aᵀ x b. dst must be a.Cols x b.Cols. Each
// output row (a column of a) accumulates over a's rows in ascending order,
// serially and in every shard split alike.
//
//hotline:hotpath
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	perCol := 2 * int64(a.Rows) * int64(b.Cols)
	if par.Serial(a.Cols, perCol) {
		axpyRowsRange(dst, a.Data, 1, a.Cols, b, 0, a.Cols)
		return
	}
	par.ForWork(a.Cols, perCol, func(lo, hi int) {
		axpyRowsRange(dst, a.Data, 1, a.Cols, b, lo, hi)
	})
}

// AddBiasRow adds bias (length m.Cols) to every row of m in place.
//
//hotline:hotpath
func AddBiasRow(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRow bias len %d want %d", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// sumRowsRange accumulates columns [lo, hi) of the column-wise sum of m
// into dst, over r in ascending order.
//
//hotline:hotpath
func sumRowsRange(dst []float32, m *Matrix, lo, hi int) {
	cols := m.Cols
	for c := lo; c < hi; c++ {
		for r := 0; r < m.Rows; r++ {
			dst[c] += m.Data[r*cols+c]
		}
	}
}

// SumRowsInto accumulates the column-wise sum of m into dst (length m.Cols).
//
//hotline:hotpath
func SumRowsInto(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst len %d want %d", len(dst), m.Cols))
	}
	if par.Serial(m.Cols, int64(m.Rows)) {
		// Row-outer on a single core; per output element the addition order
		// (r ascending) matches the column-parallel form bit for bit.
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)
			for c := range row {
				dst[c] += row[c]
			}
		}
		return
	}
	par.ForWork(m.Cols, int64(m.Rows), func(lo, hi int) {
		sumRowsRange(dst, m, lo, hi)
	})
}

// axpyRange computes dst[lo:hi] += alpha*src[lo:hi].
//
//hotline:hotpath
func axpyRange(dst *Matrix, alpha float32, src *Matrix, lo, hi int) {
	d, s := dst.Data, src.Data
	for i := lo; i < hi; i++ {
		d[i] += alpha * s[i]
	}
}

// AxpyInto computes dst += alpha*src element-wise.
//
//hotline:hotpath
func AxpyInto(dst *Matrix, alpha float32, src *Matrix) {
	checkSameShape("AxpyInto", dst, src)
	if par.Serial(len(dst.Data), 1) {
		axpyRange(dst, alpha, src, 0, len(dst.Data))
		return
	}
	par.ForWork(len(dst.Data), 1, func(lo, hi int) {
		axpyRange(dst, alpha, src, lo, hi)
	})
}

// Scale multiplies every element of m by alpha in place.
//
//hotline:hotpath
func Scale(m *Matrix, alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// hadamardRange computes dst[lo:hi] = a[lo:hi] ⊙ b[lo:hi].
//
//hotline:hotpath
func hadamardRange(dst, a, b *Matrix, lo, hi int) {
	d, x, y := dst.Data, a.Data, b.Data
	for i := lo; i < hi; i++ {
		d[i] = x[i] * y[i]
	}
}

// Hadamard computes dst = a ⊙ b element-wise.
//
//hotline:hotpath
func Hadamard(dst, a, b *Matrix) {
	checkSameShape("Hadamard", a, b)
	checkSameShape("Hadamard(dst)", dst, a)
	if par.Serial(len(dst.Data), 1) {
		hadamardRange(dst, a, b, 0, len(dst.Data))
		return
	}
	par.ForWork(len(dst.Data), 1, func(lo, hi int) {
		hadamardRange(dst, a, b, lo, hi)
	})
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			out.Data[c*m.Rows+r] = row[c]
		}
	}
	return out
}

// MaxAbsDiff returns the max absolute element-wise difference between a and b.
func MaxAbsDiff(a, b *Matrix) float32 {
	checkSameShape("MaxAbsDiff", a, b)
	var max float32
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
