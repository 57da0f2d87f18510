package tensor

import "fmt"

// Lanes is the width of the lane bodies below: eight float32 lanes, one YMM
// register. A lane block holds Lanes independent problems side by side —
// nn.DotInteraction puts one sample in each — so element l of every row of
// the block belongs to problem l, and a vector instruction advances all of
// them by one step of their own chains.
const Lanes = 8

// DotLanes computes pairs dot products in every lane: for k < pairs and each
// lane l,
//
//	dst[Lanes*k+l] = sum over t < comps of float32(a[Lanes*t+l] * b[k*stride+Lanes*t+l])
//
// accumulated from +0 in ascending t with no term skipped — each lane's own
// dot product, exactly as a scalar loop writes it. a is one lane block of
// comps rows; b holds pairs such blocks, stride elements apart. With AVX2 it
// is assembly (a VMULPS, then a VADDPS, per term and block, eight blocks in
// flight); without, the generic Go loop, which is also the reference the
// assembly is tested against bit for bit.
//
//hotline:hotpath
func DotLanes(dst, a, b []float32, stride, pairs, comps int) {
	if pairs <= 0 {
		return
	}
	if stride < 0 || comps < 0 {
		panic(fmt.Sprintf("tensor: DotLanes stride %d, comps %d", stride, comps))
	}
	// Every element either path reads or writes, checked before the call.
	dst = dst[:Lanes*pairs]
	if comps == 0 {
		clear(dst)
		return
	}
	a, b = a[:Lanes*comps], b[:(pairs-1)*stride+Lanes*comps]
	if !vectorKernel {
		dotLanesGeneric(dst, a, b, stride, pairs, comps)
		return
	}
	dotLanesAVX2(&dst[0], &a[0], &b[0], stride, pairs, comps)
}

// dotLanesGeneric is DotLanes in portable Go, one block at a time.
//
//hotline:hotpath
func dotLanesGeneric(dst, a, b []float32, stride, pairs, comps int) {
	for k := range pairs {
		var acc [Lanes]float32
		bk := b[k*stride:]
		for t := range comps {
			at, bt := a[Lanes*t:][:Lanes], bk[Lanes*t:][:Lanes]
			for l := range acc {
				acc[l] += float32(at[l] * bt[l])
			}
		}
		copy(dst[Lanes*k:], acc[:])
	}
}

// AxpyLanes sets the lane block dst to start plus lane-scaled blocks of x:
// each element begins as start's (or as +0 when start is nil; start may be
// dst itself), then for each term u in ascending order, with
// f = facs[Lanes*at[u]:][:Lanes],
//
//	dst[Lanes*c+l] += float32(f[l] * x[u*stride+Lanes*c+l])
//
// for every row c of dst and every lane l whose factor f[l] does not compare
// equal to zero; a lane whose factor is +0 or -0 adds nothing, as
// AxpyNonZeroRows skips such a term. Each lane of each row is an independent
// chain taken in term order. at lists, per term, a factor row of facs (a
// lane block), and x holds len(at) blocks of len(dst)/Lanes rows, stride
// elements apart. The assembly adds -0 in a zero-factor lane, selected in
// place of the product (x + -0 is x for every x, -0, the infinities and NaN
// included), skips a term whose eight factors are all zero and selects
// nothing for one whose factors all are non-zero; the generic Go loop skips
// the lane, and is the reference the assembly is tested against bit for bit.
//
//hotline:hotpath
func AxpyLanes(dst, start, x []float32, stride int, facs []float32, at []int32) {
	if len(dst)%Lanes != 0 || stride < 0 || (start != nil && len(start) != len(dst)) {
		panic(fmt.Sprintf("tensor: AxpyLanes over %d elements from %d at stride %d", len(dst), len(start), stride))
	}
	if len(dst) == 0 {
		return
	}
	if len(at) > 0 {
		x = x[:(len(at)-1)*stride+len(dst)]
	}
	if len(at) == 0 || !vectorKernel {
		if start == nil {
			clear(dst)
		} else {
			copy(dst, start)
		}
		axpyLanesGeneric(dst, x, stride, facs, at)
		return
	}
	var from *float32
	if start != nil {
		from = &start[0]
	}
	if len(facs) < Lanes || !axpyLanesAVX2(&dst[0], from, len(dst)/Lanes, &x[0], stride, &facs[0], len(facs)/Lanes, &at[0], len(at)) {
		panic("tensor: AxpyLanes factor row outside facs")
	}
}

// axpyLanesGeneric is AxpyLanes in portable Go, one term at a time, adding
// to dst.
//
//hotline:hotpath
func axpyLanesGeneric(dst, x []float32, stride int, facs []float32, at []int32) {
	for u, r := range at {
		f := facs[Lanes*int(r):][:Lanes]
		xu := x[u*stride:][:len(dst)]
		for c := 0; c < len(dst); c += Lanes {
			d, xc := dst[c:c+Lanes], xu[c:c+Lanes]
			for l, g := range f {
				if g != 0 {
					d[l] += float32(g * xc[l])
				}
			}
		}
	}
}

// TransposeBlock writes the rows x cols block of src, whose rows begin
// srcStride elements apart, into dst transposed, dst's rows dstStride apart:
// dst[c*dstStride+r] = src[r*srcStride+c]. It moves bits and computes
// nothing. With AVX2 the whole 8x8 tiles are one assembly body (128-bit
// loads paired across each tile's halves, VUNPCKLPS/VUNPCKHPS, VSHUFPS and
// VBLENDPS); the edges of a block that is not a multiple of 8 either way,
// and every tile without AVX2, are a Go loop.
//
//hotline:hotpath
func TransposeBlock(dst []float32, dstStride int, src []float32, srcStride, rows, cols int) {
	if rows <= 0 || cols <= 0 {
		return
	}
	if srcStride < cols || dstStride < rows {
		panic(fmt.Sprintf("tensor: TransposeBlock %dx%d at strides %d, %d", rows, cols, srcStride, dstStride))
	}
	src, dst = src[:(rows-1)*srcStride+cols], dst[:(cols-1)*dstStride+rows]
	r, c := 0, 0
	if vectorKernel && rows >= 8 && cols >= 8 {
		r, c = rows&^7, cols&^7
		transpose8AVX2(&dst[0], dstStride, &src[0], srcStride, r/8, c/8)
	}
	if c < cols {
		transposeGeneric(dst, dstStride, src, srcStride, 0, rows, c, cols)
	}
	if r < rows {
		transposeGeneric(dst, dstStride, src, srcStride, r, rows, 0, c)
	}
}

// transposeGeneric is TransposeBlock's Go loop over rows [r0, r1) and
// columns [c0, c1).
//
//hotline:hotpath
func transposeGeneric(dst []float32, dstStride int, src []float32, srcStride, r0, r1, c0, c1 int) {
	for r := r0; r < r1; r++ {
		row := src[r*srcStride:][:c1]
		for c := c0; c < c1; c++ {
			dst[c*dstStride+r] = row[c]
		}
	}
}
