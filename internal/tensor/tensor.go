package tensor

import (
	"fmt"

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

// axpyRowsRange computes rows [lo, hi) of dst = x x b (dst rows pre-zeroed),
// where element (i, k) of the left operand x is a[i*rowStride+k*innerStride]:
// a itself for MatMul, its transpose for MatMulTransA. A term whose left
// factor compares equal to zero (either sign) is skipped, never added: the
// non-zero terms of a row are compacted, in ascending k, into the list the
// kernel adds, so every output element's chain is that of the k-ascending
// one-term-at-a-time loop whatever the zero pattern. The inner dimension is
// walked a block of termBlock at a time with the output rows inside, so a
// block of b is set up once and stays in cache across all of them.
//
//hotline:hotpath
func axpyRowsRange(dst *Matrix, a []float32, rowStride, innerStride int, b *Matrix, lo, hi int) {
	var (
		rows [termBlock][]float32
		sel  [termBlock]int32
		facs [termBlock]float32
	)
	for k0 := 0; k0 < b.Rows; k0 += termBlock {
		terms := min(termBlock, b.Rows-k0)
		for q := 0; q < terms; q++ {
			rows[q] = b.Row(k0 + q)
		}
		for i := lo; i < hi; i++ {
			p := compact(&sel, &facs, a, i*rowStride+k0*innerStride, innerStride, terms)
			axpySelected(dst.Row(i), rows[:terms], sel[:p], facs[:p])
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

// matMulPackedRange computes rows [lo, hi) of dst = a x bT (dst rows
// pre-zeroed) and never skips a term: row i of dst is the chain
// ((0 + a[i][0]*bT[0]) + a[i][1]*bT[1]) + ..., every element of it a dot
// product accumulated in ascending k from +0. The factors are a's own rows,
// so no list is built. bT is as wide as the layer's input (367 columns under
// Kaggle's interaction), so it is taken a panel of columns at a time: a
// panel's block stays in the first-level cache across all the output rows.
//
//hotline:hotpath
func matMulPackedRange(dst, a, bT *Matrix, lo, hi int) {
	const panel = 64
	var rows [termBlock][]float32
	for c0 := 0; c0 < bT.Cols; c0 += panel {
		c1 := min(c0+panel, bT.Cols)
		for k0 := 0; k0 < bT.Rows; k0 += termBlock {
			k1 := min(k0+termBlock, bT.Rows)
			for k := k0; k < k1; k++ {
				rows[k-k0] = bT.Row(k)[c0:c1]
			}
			for i := lo; i < hi; i++ {
				AxpyRows(dst.Row(i)[c0:c1], rows[:k1-k0], a.Row(i)[k0:k1])
			}
		}
	}
}

// MatMulTransB computes dst = a x bᵀ. dst must be a.Rows x b.Rows. A dot
// product's lanes are not independent output elements, so the kernel does
// not take dot products: it packs bᵀ into bT (scratch the caller owns,
// resized here) once per call and accumulates scaled rows of it, which makes
// every output element the same chain a dot product is — the products of
// a's row and b's row added in ascending index from +0, none skipped.
//
//hotline:hotpath
func MatMulTransB(dst, a, b, bT *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	TransposeInto(bT, b)
	dst.Zero()
	perRow := 2 * int64(a.Cols) * int64(b.Rows)
	if par.Serial(a.Rows, perRow) {
		matMulPackedRange(dst, a, bT, 0, a.Rows)
		return
	}
	par.ForWork(a.Rows, perRow, func(lo, hi int) {
		matMulPackedRange(dst, a, bT, lo, hi)
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

// axpyFlat computes dst[lo:hi] += alpha*src[lo:hi]: AxpyRows with one term,
// so the product is rounded before its add here as everywhere.
//
//hotline:hotpath
func axpyFlat(dst *Matrix, alpha float32, src *Matrix, lo, hi int) {
	rows, facs := [1][]float32{src.Data[lo:hi]}, [1]float32{alpha}
	AxpyRows(dst.Data[lo:hi], rows[:], facs[:])
}

// AxpyInto computes dst += alpha*src element-wise.
//
//hotline:hotpath
func AxpyInto(dst *Matrix, alpha float32, src *Matrix) {
	checkSameShape("AxpyInto", dst, src)
	if par.Serial(len(dst.Data), 1) {
		axpyFlat(dst, alpha, src, 0, len(dst.Data))
		return
	}
	par.ForWork(len(dst.Data), 1, func(lo, hi int) {
		axpyFlat(dst, alpha, src, lo, hi)
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

// TransposeInto resizes dst to m.Cols x m.Rows and writes mᵀ into it.
//
//hotline:hotpath
func TransposeInto(dst, m *Matrix) {
	dst.ResizeNoZero(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		at := r
		for _, v := range m.Row(r) {
			dst.Data[at] = v
			at += m.Rows
		}
	}
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	out := &Matrix{}
	TransposeInto(out, m)
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
