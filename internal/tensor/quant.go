package tensor

import "math"

// Row quantization kernels for the precision-tiered device caches.
//
// Two narrow formats are supported:
//
//   - int8 with a symmetric per-row scale: q = round(v/scale) clamped to
//     [-127, 127], scale = maxabs(row)/127. The row footprint is dim bytes
//     plus one float32 scale.
//   - IEEE 754 binary16 (fp16), round-to-nearest-even. The row footprint is
//     2*dim bytes.
//
// Every kernel is total: NaN inputs quantize to 0 and infinities saturate at
// the format's extreme, so a corrupted row can never panic the hot path or
// inject non-finite values into training math (FuzzQuantRoundTrip gates
// this). Embedding rows are finite by construction, so the saturation paths
// are a safety net, not a steady-state branch.
//
// The round-trip kernels (RoundTripI8 / RoundTripF16) are the math core of
// the fused dequantize-gather: they write dequantize(quantize(src)) straight
// into a caller-owned destination without materializing the narrow row —
// exactly the value a real warm-tier cache would serve. Elements are
// independent, so any loop shape gives the same bits.
//
// The int8 kernels have two paths with the same output. A row that is all
// finite, with a scale whose reciprocal is finite too (every embedding row),
// takes a branch-free loop: one integer max over the sign-masked bits finds
// both maxabs and whether anything non-finite is there, and q8Finite rounds
// without the NaN test, the clamps or a branch on the sign. Any other row
// takes the total path (maxAbsFinite, q8). On amd64 with AVX2 the scan and
// the finite round trip are assembly (maxAbsBitsAVX2, roundTripI8AVX2 in
// axpy_amd64.s), eight elements per instruction with the same float32
// operations in the same order per element; the per-row scale (i8Scale), the
// total path and fp16 stay in Go.

// I8RowOverheadBytes is the per-row metadata of the int8 format (one float32
// scale).
const I8RowOverheadBytes = 4

// F16MaxValue is the largest finite binary16 magnitude; QuantizeRowF16
// saturates there instead of overflowing to infinity.
const F16MaxValue = 65504

// F16FromF32 converts one float32 to IEEE 754 binary16 with round-to-
// nearest-even. NaN maps to zero and magnitudes above F16MaxValue saturate
// at the largest finite half (kernel totality; see the package comment).
//
//hotline:hotpath
func F16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff
	if exp == 0xff { // Inf or NaN
		if man != 0 {
			return 0 // NaN → 0
		}
		return sign | 0x7bff // ±Inf saturates at ±F16MaxValue
	}
	// Rebase the exponent: f32 bias 127 → f16 bias 15.
	e := exp - 127 + 15
	if e >= 0x1f {
		return sign | 0x7bff // overflow saturates
	}
	if e <= 0 {
		// Subnormal (or underflow-to-zero) half: shift the full 24-bit
		// significand right with round-to-nearest-even.
		if e < -10 {
			return sign // underflows even the smallest subnormal
		}
		m := man | 0x800000 // implicit leading 1
		shift := uint32(14 - e)
		q := m >> shift
		rem := m & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return sign | uint16(q)
	}
	// Normal half: drop 13 mantissa bits with round-to-nearest-even.
	q := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && q&1 == 1) {
		q++
		if q == 0x400 { // mantissa rounded over; bump the exponent
			q = 0
			e++
			if e >= 0x1f {
				return sign | 0x7bff
			}
		}
	}
	return sign | uint16(e)<<10 | uint16(q)
}

// F16ToF32 converts one IEEE 754 binary16 to float32 (exact: every half is
// representable as a float32).
//
//hotline:hotpath
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal half: normalize into the f32 exponent range.
		e := uint32(113)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | e<<23 | man<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | man<<13) // Inf/NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// f32ExpMask is the float32 exponent field; sign-masked bits at or above it
// are an infinity or a NaN, and below it they order as the magnitudes do.
const f32ExpMask = 0x7f800000

// maxAbsBits returns the largest sign-masked bit pattern in src: the bits of
// the largest |v| when every element is finite, and a value >= f32ExpMask
// when any is not. Four independent integer maxima, no branch per element;
// with AVX2, the same maxima eight lanes wide (maxAbsBitsAVX2). An integer
// maximum has one answer in any order, so the two agree on every row.
//
//hotline:hotpath
func maxAbsBits(src []float32) uint32 {
	if vectorKernel && len(src) > 0 {
		return maxAbsBitsAVX2(&src[0], len(src))
	}
	var m0, m1, m2, m3 uint32
	for ; len(src) >= 4; src = src[4:] {
		m0 = max(m0, math.Float32bits(src[0])&^(1<<31))
		m1 = max(m1, math.Float32bits(src[1])&^(1<<31))
		m2 = max(m2, math.Float32bits(src[2])&^(1<<31))
		m3 = max(m3, math.Float32bits(src[3])&^(1<<31))
	}
	for _, v := range src {
		m0 = max(m0, math.Float32bits(v)&^(1<<31))
	}
	return max(m0, m1, m2, m3)
}

// maxAbsFinite returns the largest finite |v| in src (0 when src is empty or
// holds no finite value): the total path's scan, for rows maxAbsBits flags.
//
//hotline:hotpath
func maxAbsFinite(src []float32) float32 {
	var m float32
	for _, v := range src {
		if v != v { // NaN
			continue
		}
		if v < 0 {
			v = -v
		}
		if v > m && v <= math.MaxFloat32 {
			m = v
		}
	}
	return m
}

// i8Scale derives the symmetric per-row scale, nudged down by ulps until the
// dequantized extreme 127*scale stays finite — a row whose maxabs sits
// within one rounding step of MaxFloat32 would otherwise overflow on the way
// back (totality again; the slack is far inside the error bound). inv is
// 1/scale, and finite reports that the row may take q8Finite: every element
// is finite and so is inv (a denormal scale's reciprocal overflows, and 0*Inf
// is a NaN).
//
//hotline:hotpath
func i8Scale(src []float32) (scale, inv float32, finite bool) {
	var maxAbs float32
	if m := maxAbsBits(src); m < f32ExpMask {
		maxAbs, finite = math.Float32frombits(m), true
	} else {
		maxAbs = maxAbsFinite(src)
	}
	scale = maxAbs / 127
	for 127*scale > math.MaxFloat32 {
		scale = math.Nextafter32(scale, 0)
	}
	inv = 1 / scale
	return scale, inv, finite && inv <= math.MaxFloat32
}

// q8 quantizes one value at 1/scale, saturating at ±127 (infinities clamp,
// NaN maps to 0).
//
//hotline:hotpath
func q8(v, inv float32) int8 {
	if v != v {
		return 0
	}
	s := v * inv
	if s >= 127 {
		return 127
	}
	if s <= -127 {
		return -127
	}
	if s >= 0 {
		return int8(s + 0.5)
	}
	return int8(s - 0.5)
}

// q8Finite is q8 for a finite v of a row whose i8Scale reported finite. Then
// |v*inv| stays within a few ulps of 127, so rounding half away from zero
// (add 0.5 with v's sign, truncate) cannot reach ±128 and q8's clamps never
// fire; the sign is copied bitwise, because a branch on it mispredicts on
// every other element of an embedding row.
//
//hotline:hotpath
func q8Finite(v, inv float32) int32 {
	s := v * inv
	half := math.Float32frombits(0x3f000000 | math.Float32bits(s)&(1<<31))
	return int32(s + half)
}

// QuantizeRowI8 quantizes src into dst with a symmetric per-row scale
// (scale = maxabs/127) and returns the scale. A row with no finite non-zero
// value quantizes to all zeros with scale 0. len(dst) must be >= len(src).
//
//hotline:hotpath
func QuantizeRowI8(dst []int8, src []float32) float32 {
	dst = dst[:len(src)]
	scale, inv, finite := i8Scale(src)
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	if finite {
		for i, v := range src {
			dst[i] = int8(q8Finite(v, inv))
		}
		return scale
	}
	for i, v := range src {
		dst[i] = q8(v, inv)
	}
	return scale
}

// DequantizeRowI8 expands an int8 row back to float32 at the given scale.
// len(dst) must be >= len(src).
//
//hotline:hotpath
func DequantizeRowI8(dst []float32, src []int8, scale float32) {
	j := 0
	for ; j+4 <= len(src); j += 4 {
		dst[j] = float32(src[j]) * scale
		dst[j+1] = float32(src[j+1]) * scale
		dst[j+2] = float32(src[j+2]) * scale
		dst[j+3] = float32(src[j+3]) * scale
	}
	for ; j < len(src); j++ {
		dst[j] = float32(src[j]) * scale
	}
}

// QuantizeRowF16 converts src to binary16. len(dst) must be >= len(src).
//
//hotline:hotpath
func QuantizeRowF16(dst []uint16, src []float32) {
	j := 0
	for ; j+4 <= len(src); j += 4 {
		dst[j] = F16FromF32(src[j])
		dst[j+1] = F16FromF32(src[j+1])
		dst[j+2] = F16FromF32(src[j+2])
		dst[j+3] = F16FromF32(src[j+3])
	}
	for ; j < len(src); j++ {
		dst[j] = F16FromF32(src[j])
	}
}

// DequantizeRowF16 expands a binary16 row back to float32. len(dst) must be
// >= len(src).
//
//hotline:hotpath
func DequantizeRowF16(dst []float32, src []uint16) {
	j := 0
	for ; j+4 <= len(src); j += 4 {
		dst[j] = F16ToF32(src[j])
		dst[j+1] = F16ToF32(src[j+1])
		dst[j+2] = F16ToF32(src[j+2])
		dst[j+3] = F16ToF32(src[j+3])
	}
	for ; j < len(src); j++ {
		dst[j] = F16ToF32(src[j])
	}
}

// RoundTripI8 writes dequantize(quantize(src)) into dst without
// materializing the int8 row — the fused dequantize-gather kernel for the
// warm tier's int8 format. dst and src may alias. len(dst) must be >=
// len(src). With AVX2 the finite path runs on the assembly body
// (roundTripI8AVX2); the Go loop below it is the reference it is tested
// against, and the total path stays in Go on every machine.
//
//hotline:hotpath
func RoundTripI8(dst, src []float32) {
	dst = dst[:len(src)]
	scale, inv, finite := i8Scale(src)
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if finite {
		if vectorKernel {
			// scale != 0, so src is not empty.
			roundTripI8AVX2(&dst[0], &src[0], len(src), inv, scale)
			return
		}
		for i, v := range src {
			dst[i] = float32(q8Finite(v, inv)) * scale
		}
		return
	}
	for i, v := range src {
		dst[i] = float32(q8(v, inv)) * scale
	}
}

// PrefetchRow asks the cache for every line of row ahead of its use
// (PREFETCHT0 per 64-byte line) and returns at once: the warm-tier fill
// calls it on the rows it will round a few rows from now, which miss by
// construction, so their memory latency overlaps the rounding of the rows
// before them. A hint only — no value anywhere changes — and a no-op without
// the vector kernel.
//
//hotline:hotpath
func PrefetchRow(row []float32) {
	if vectorKernel && len(row) > 0 {
		prefetchLines(&row[0], len(row))
	}
}

// RoundTripF16 writes dequantize(quantize(src)) into dst for the fp16
// format — the fused dequantize-gather kernel for fp16-tier rows. dst and
// src may alias. len(dst) must be >= len(src).
//
//hotline:hotpath
func RoundTripF16(dst, src []float32) {
	j := 0
	for ; j+4 <= len(src); j += 4 {
		dst[j] = F16ToF32(F16FromF32(src[j]))
		dst[j+1] = F16ToF32(F16FromF32(src[j+1]))
		dst[j+2] = F16ToF32(F16FromF32(src[j+2]))
		dst[j+3] = F16ToF32(F16FromF32(src[j+3]))
	}
	for ; j < len(src); j++ {
		dst[j] = F16ToF32(F16FromF32(src[j]))
	}
}
