package tensor

import "math"

// vectorKernel says whether the AVX2 bodies run: AxpyRows and its siblings,
// the int8 round trip, and PrefetchRow's prefetch. The machine decides,
// once, when the package loads; no flag, option or environment variable
// does, and nothing but this package's tests writes it afterwards.
var vectorKernel = hasAVX2()

// termBlock is the most terms the assembly kernel is handed at once: a
// block's selection and factors live on a driver's stack. A longer chain is
// cut into blocks, which no output bit can see (the destination is stored and
// reloaded between two blocks, exactly).
const termBlock = 64

// inOrder is the selection that takes every row of a block, in order.
var inOrder = func() (sel [termBlock]int32) {
	for q := range sel {
		sel[q] = int32(q)
	}
	return
}()

// AxpyRows adds scaled rows to dst: for each q in ascending order,
// dst[j] += float32(facs[q] * rows[q][j]) for every j. It is the one
// micro-kernel under the GEMM family and the dense update (MatMul and
// MatMulTransA hand it only their non-zero terms, through compact). Every
// destination element is an independent chain — its
// products are added in list order, each rounded to float32 before its add,
// never a fused multiply-add — so the result is bit-equal to len(rows)
// one-term passes however many elements or terms an implementation keeps in
// flight. Every row must be at least len(dst) long and facs at least
// len(rows).
//
//hotline:hotpath
func AxpyRows(dst []float32, rows [][]float32, facs []float32) {
	facs = facs[:len(rows)]
	for len(rows) > 0 {
		c := min(len(rows), termBlock)
		axpySelected(dst, rows[:c], inOrder[:c], facs[:c])
		rows, facs = rows[c:], facs[c:]
	}
}

// nonZero returns 1 when a != 0 and 0 when a is +0 or -0 (NaN counts as
// non-zero, as it does for the comparison), without a branch.
//
//hotline:hotpath
func nonZero(a float32) int {
	mag := math.Float32bits(a) << 1 // all bits but the sign
	return int((mag | -mag) >> 31)
}

// compact lists the non-zero values among a[at], a[at+stride], ... (count of
// them, at most termBlock) in kept, their positions in sel, both in order,
// and returns how many there are. It does not branch on a value: the slot is
// written either way and kept only when the value is non-zero. A ReLU
// output's zeros fall at random, so a branch on them mispredicts every other
// term.
//
//hotline:hotpath
func compact(sel *[termBlock]int32, kept *[termBlock]float32, a []float32, at, stride, count int) int {
	p := 0
	for q := 0; q < count; q++ {
		v := a[at]
		at += stride
		// p < termBlock here; the mask tells the compiler.
		sel[p&(termBlock-1)], kept[p&(termBlock-1)] = int32(q), v
		p += nonZero(v)
	}
	return p
}

// axpySelected adds the listed terms to dst: for each q in ascending order,
// dst[j] += float32(facs[q] * rows[sel[q]][j]). With AVX2 it is the assembly
// kernel (eight elements per instruction, a destination tile held in
// registers across all terms, a masked last vector); without, the generic Go
// loops, which are also the reference the vector kernel is tested against,
// bit for bit.
//
//hotline:hotpath
func axpySelected(dst []float32, rows [][]float32, sel []int32, facs []float32) {
	facs = facs[:len(sel)]
	if len(dst) == 0 || len(sel) == 0 {
		return
	}
	if !vectorKernel {
		axpySelectedGeneric(dst, rows, sel, facs)
		return
	}
	if !axpyRowsAVX2(&dst[0], len(dst), &rows[0], len(rows), &sel[0], &facs[0], len(sel)) {
		panic("tensor: AxpyRows source row shorter than dst")
	}
}

// axpySelectedGeneric is axpySelected in portable Go: four terms per pass
// over dst, which is loaded and stored once per four updates, then the
// remainder one term at a time.
//
//hotline:hotpath
func axpySelectedGeneric(dst []float32, rows [][]float32, sel []int32, facs []float32) {
	q := 0
	for ; q+4 <= len(sel); q += 4 {
		s, f := sel[q:q+4:q+4], facs[q:q+4:q+4]
		axpy4(dst, rows[s[0]], rows[s[1]], rows[s[2]], rows[s[3]], f[0], f[1], f[2], f[3])
	}
	for ; q < len(sel); q++ {
		axpy1(dst, rows[sel[q]], facs[q])
	}
}

// axpy4 adds four scaled rows to dst: dst[j] += a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j], in that order, with every product rounded to float32
// first (the conversion forbids a fused multiply-add on every target).
//
//hotline:hotpath
func axpy4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
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

// axpy1 computes dst[j] += a*b[j]: one term of the chain axpy4 applies four
// at a time.
//
//hotline:hotpath
func axpy1(dst, b []float32, a float32) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += float32(a * b[j])
	}
}

// AddRows adds rows to dst: for each q in ascending order, dst[j] +=
// rows[q][j] for every j. It is AxpyRows with every factor 1 (x·1 is exact,
// so the chain is the same: destination, then rows ascending) on a sibling
// assembly body that has no multiply, no selection and no factor list: the
// reducer under the embedding bag's pooled sum and its adjoint. Without AVX2
// it is the generic Go loops (add4, AddRow), the reference the body is tested
// against. Every row must be at least len(dst) long.
//
//hotline:hotpath
func AddRows(dst []float32, rows [][]float32) {
	if len(dst) == 0 || len(rows) == 0 {
		return
	}
	if !vectorKernel {
		addRowsGeneric(dst, rows)
		return
	}
	if !addRowsAVX2(&dst[0], len(dst), &rows[0], len(rows)) {
		panic("tensor: AddRows source row shorter than dst")
	}
}

// addRowsGeneric is AddRows in portable Go: four rows per pass over dst,
// then the remainder one row at a time.
//
//hotline:hotpath
func addRowsGeneric(dst []float32, rows [][]float32) {
	for ; len(rows) >= 4; rows = rows[4:] {
		add4(dst, rows[0], rows[1], rows[2], rows[3])
	}
	for _, r := range rows {
		AddRow(dst, r)
	}
}

// add4 adds four rows to dst, element by element in argument order:
// dst[k] = (((dst[k] + a[k]) + b[k]) + c[k]) + d[k]. Each element is loaded
// and stored once per four additions, and its chain is the one four AddRow
// passes build — the rows in flight reorder loads, never adds.
//
//hotline:hotpath
func add4(dst, a, b, c, d []float32) {
	a, b, c, d = a[:len(dst)], b[:len(dst)], c[:len(dst)], d[:len(dst)]
	for k, v := range dst {
		v += a[k]
		v += b[k]
		v += c[k]
		v += d[k]
		dst[k] = v
	}
}

// AddRow computes dst[k] += a[k]: one term of the chain AddRows applies to a
// whole list, as a Go loop on every machine. It is the generic path's
// remainder, and what the embedding bag adds a small bag with: below a few
// dozen elements a call into the assembly costs more than the adds it saves.
// a must be at least len(dst) long.
//
//hotline:hotpath
func AddRow(dst, a []float32) {
	a = a[:len(dst)]
	for k := range dst {
		dst[k] += a[k]
	}
}

// AxpyIntoRows adds scaled rows to the listed rows of dst: for each i in
// ascending order, dst.Row(at[i])[j] += float32(a * src[i*dst.Cols+j]) for
// every j — the sparse update, one destination row per term where AxpyRows
// has one destination for all terms. Each product is rounded to float32
// before its add, never fused, so the vector body and the generic loop
// (axpy1, a row at a time) agree bit for bit. src holds len(at) rows of
// dst.Cols elements; every at[i] must be a row of dst.
//
//hotline:hotpath
func AxpyIntoRows(dst *Matrix, at []int32, src []float32, a float32) {
	n := dst.Cols
	src, data := src[:len(at)*n], dst.Data[:dst.Rows*n]
	if n == 0 || len(at) == 0 {
		return
	}
	if !vectorKernel {
		for i, r := range at {
			axpy1(dst.Row(int(r)), src[i*n:(i+1)*n], a)
		}
		return
	}
	if !axpyIntoRowsAVX2(&data[0], dst.Rows, n, &at[0], len(at), &src[0], a) {
		panic("tensor: AxpyIntoRows row outside dst")
	}
}
