package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

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

// axpyStrided adds the terms of a GEMM row to dst straight from its
// operands: for each q < terms in ascending order whose factor f =
// a[q*aStride] does not compare equal to zero, dst[j] += float32(f *
// b[q*bStride+j]) for every j — the chain of axpySelected over the
// compacted list, with no list. It returns how many factors were zero. With
// AVX2 it is the assembly kernel (axpySelected's tiles, a zero factor
// skipped by a branch); without, the generic Go loop, also its reference.
//
//hotline:hotpath
func axpyStrided(dst, b []float32, bStride int, a []float32, aStride, terms int) int {
	if len(dst) == 0 || terms <= 0 {
		return 0
	}
	if bStride < 0 || aStride <= 0 {
		panic("tensor: axpyStrided needs a positive factor stride and a row stride of at least zero")
	}
	// Every element either path reads, checked before the call.
	b, a = b[:(terms-1)*bStride+len(dst)], a[:(terms-1)*aStride+1]
	if !vectorKernel {
		return axpyStridedGeneric(dst, b, bStride, a, aStride, terms)
	}
	return axpyStridedAVX2(&dst[0], len(dst), &b[0], bStride, &a[0], aStride, terms)
}

// axpyStridedGeneric is axpyStrided in portable Go, one term at a time.
//
//hotline:hotpath
func axpyStridedGeneric(dst, b []float32, bStride int, a []float32, aStride, terms int) (zeros int) {
	for q := range terms {
		if f := a[q*aStride]; f != 0 {
			axpy1(dst, b[q*bStride:], f)
		} else {
			zeros++
		}
	}
	return zeros
}

// gemvLanes adds a one-column GEMM's terms to dst with the output elements
// in the lanes: for each t < len(s) in ascending order, dst[j] +=
// float32(x[t*stride+j] * s[t]) for every j whose x[t*stride+j] does not
// compare equal to zero. Row t of x holds term t's left factor of every
// output element, so each element's chain is the reference's: its factors
// in ascending t, a zero one skipped. With AVX2 it is assembly (-0 selected
// in a zero factor's lane, AxpyLanes' select); without, the generic Go
// loop, also its reference.
//
//hotline:hotpath
func gemvLanes(dst, x []float32, stride int, s []float32) {
	if len(dst) == 0 || len(s) == 0 {
		return
	}
	if stride < 0 {
		panic(fmt.Sprintf("tensor: gemvLanes stride %d", stride))
	}
	x = x[:(len(s)-1)*stride+len(dst)]
	if !vectorKernel {
		gemvLanesGeneric(dst, x, stride, s)
		return
	}
	gemvLanesAVX2(&dst[0], len(dst), &x[0], stride, &s[0], len(s))
}

// gemvLanesGeneric is gemvLanes in portable Go, one term at a time.
//
//hotline:hotpath
func gemvLanesGeneric(dst, x []float32, stride int, s []float32) {
	for t, f := range s {
		xt := x[t*stride:][:len(dst)]
		for j, v := range xt {
			if v != 0 {
				dst[j] += float32(v * f)
			}
		}
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
// whole list, as a Go loop on every machine. It is the generic paths'
// remainder, and what the sharded bag's staged-rows loop adds a small bag
// with, a row at a time, since that loop finds each row by a call. a must be
// at least len(dst) long.
//
//hotline:hotpath
func AddRow(dst, a []float32) {
	a = a[:len(dst)]
	for k := range dst {
		dst[k] += a[k]
	}
}

// AddSmallBags pools the leading small bags of a lookup into consecutive
// rows of dst: for each b from 0, in order, while bags[b] holds fewer than
// need indices, row b of dst (dst[b*w.Cols:][:w.Cols]) gets w.Row(ix) added
// for every ix of bags[b] in lookup order — the AddRow chain, which starts
// from the row's own value, so a +0 row plus -0 stays +0. It returns the
// position of the first bag of need indices or more (len(bags) when there is
// none), whose row and those after it it leaves alone. dst holds len(bags)
// rows of w.Cols elements, and every index it reaches must be a row of w.
//
// With AVX2 it is one assembly call for the whole run of bags, the output
// row held in registers while its rows are added and the indices checked as
// they are read; without, the generic Go loop, also its reference. The
// embedding bag's one-hot lookup is its shape.
//
//hotline:hotpath
func AddSmallBags(dst []float32, w *Matrix, bags [][]int32, need int) int {
	n := w.Cols
	if len(dst) != len(bags)*n {
		panic("tensor: AddSmallBags dst is not one row of w per bag")
	}
	if !vectorKernel || len(dst) == 0 || w.Rows == 0 {
		return addSmallBagsGeneric(dst, w, bags, need)
	}
	data := w.Data[:w.Rows*n]
	b := addSmallBagsAVX2(&dst[0], n, &bags[0], len(bags), &data[0], w.Rows, need)
	if b < 0 {
		panic("tensor: AddSmallBags index outside w")
	}
	return b
}

// addSmallBagsGeneric is AddSmallBags in portable Go, one row at a time. Its
// loop holds no call: AddRow and Matrix.Row inline, so the compiler keeps the
// loop's state in registers bag after bag.
//
//hotline:hotpath
func addSmallBagsGeneric(dst []float32, w *Matrix, bags [][]int32, need int) int {
	n := w.Cols
	for b, bag := range bags {
		if len(bag) >= need {
			return b
		}
		orow := dst[b*n : (b+1)*n]
		for _, ix := range bag {
			AddRow(orow, w.Row(int(ix)))
		}
	}
	return len(bags)
}

// AddSmallSegments is AddSmallBags over the adjoint's row-ordered pairs:
// segment i is pairs[starts[i]:starts[i+1]], its bag the rows of src at the
// pairs' low 32 bits (uint32(p), the batch position), so row i of dst gets
// src.Row(int(uint32(p))) added for every p of the segment in order, for each
// i from 0 while the segment holds fewer than need pairs. It returns the
// position of the first segment of need pairs or more (len(starts)-1 when
// there is none). dst holds len(starts)-1 rows of src.Cols elements; every
// segment it reaches must lie inside pairs and every row it names inside src.
// With AVX2 it is one assembly call, as AddSmallBags is.
//
//hotline:hotpath
func AddSmallSegments(dst []float32, src *Matrix, pairs []int64, starts []int32, need int) int {
	n, segs := src.Cols, max(len(starts)-1, 0)
	if len(dst) != segs*n {
		panic("tensor: AddSmallSegments dst is not one row of src per segment")
	}
	if !vectorKernel || len(dst) == 0 || src.Rows == 0 {
		return addSmallSegmentsGeneric(dst, src, pairs, starts, need)
	}
	data := src.Data[:src.Rows*n]
	i := addSmallSegmentsAVX2(&dst[0], n, &data[0], src.Rows, unsafe.SliceData(pairs), len(pairs), &starts[0], segs, need)
	if i < 0 {
		panic("tensor: AddSmallSegments segment or row outside its list")
	}
	return i
}

// addSmallSegmentsGeneric is AddSmallSegments in portable Go, one row at a
// time, with no call in its loop either.
//
//hotline:hotpath
func addSmallSegmentsGeneric(dst []float32, src *Matrix, pairs []int64, starts []int32, need int) int {
	n := src.Cols
	for i := 0; i+1 < len(starts); i++ {
		seg := pairs[starts[i]:starts[i+1]]
		if len(seg) >= need {
			return i
		}
		g := dst[i*n : (i+1)*n]
		for _, p := range seg {
			AddRow(g, src.Row(int(uint32(p))))
		}
	}
	return max(len(starts)-1, 0)
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
