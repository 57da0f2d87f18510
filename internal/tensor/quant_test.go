package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// i8Bound returns the worst-case absolute round-trip error of the int8
// format for a row with the given scale: half a quantization step plus a
// little float32 rounding slack.
func i8Bound(scale float32) float64 {
	return float64(scale)*0.501 + 1e-30
}

// f16Bound returns the worst-case absolute round-trip error of binary16 for
// one finite value within the format's range: half a ulp relative in the
// normal range, the subnormal step near zero (both with slack).
func f16Bound(v float32) float64 {
	av := math.Abs(float64(v))
	rel := av / 1024 // 2^-10: one full ulp, double the RNE bound
	if rel < 1.0/(1<<24) {
		rel = 1.0 / (1 << 24)
	}
	return rel
}

// refQuantI8 is the int8 format's scalar specification: the one-branch-per-
// case scan and quantizer the kernels were first written as. The production
// kernels must return its scale and its codes bit for bit on every row,
// finite or not.
func refQuantI8(src []float32) (q []int8, scale float32) {
	var maxAbs float32
	for _, v := range src {
		if v != v { // NaN
			continue
		}
		if v < 0 {
			v = -v
		}
		if v > maxAbs && v <= math.MaxFloat32 {
			maxAbs = v
		}
	}
	scale = maxAbs / 127
	for 127*scale > math.MaxFloat32 {
		scale = math.Nextafter32(scale, 0)
	}
	q = make([]int8, len(src))
	if scale == 0 {
		return q, 0
	}
	inv := 1 / scale
	for i, v := range src {
		s := v * inv
		switch {
		case v != v:
			q[i] = 0
		case s >= 127:
			q[i] = 127
		case s <= -127:
			q[i] = -127
		case s >= 0:
			q[i] = int8(s + 0.5)
		default:
			q[i] = int8(s - 0.5)
		}
	}
	return q, scale
}

// requireI8MatchesReference checks QuantizeRowI8 and RoundTripI8 against
// refQuantI8 on one row, comparing bits.
func requireI8MatchesReference(t *testing.T, src []float32) {
	t.Helper()
	wantQ, wantScale := refQuantI8(src)
	q := make([]int8, len(src))
	scale := QuantizeRowI8(q, src)
	if math.Float32bits(scale) != math.Float32bits(wantScale) {
		t.Fatalf("scale %x, reference %x (row %v)", math.Float32bits(scale), math.Float32bits(wantScale), src)
	}
	rt := make([]float32, len(src))
	RoundTripI8(rt, src)
	for i := range src {
		if q[i] != wantQ[i] {
			t.Fatalf("elem %d (%g, bits %x): code %d, reference %d (scale %g)", i, src[i], math.Float32bits(src[i]), q[i], wantQ[i], scale)
		}
		if want := float32(wantQ[i]) * wantScale; math.Float32bits(rt[i]) != math.Float32bits(want) {
			t.Fatalf("elem %d (%g): round trip %x, reference %x", i, src[i], math.Float32bits(rt[i]), math.Float32bits(want))
		}
	}
}

// TestI8KernelsMatchScalarReference drives both int8 paths: rows of every
// magnitude a float32 holds (so the scale is sometimes denormal, its
// reciprocal sometimes infinite), a maxabs of MaxFloat32 (the ulp nudge),
// values that land on the .5 rounding boundary, signed zeros, and rows laced
// with NaN and infinities, at lengths on both sides of the scan's unroll —
// on the vector kernel and on the generic loops.
func TestI8KernelsMatchScalarReference(t *testing.T) {
	onBothPaths(t, testI8KernelsMatchScalarReference)
}

func testI8KernelsMatchScalarReference(t *testing.T) {
	rng := NewRNG(29)
	nonFinite := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for trial := 0; trial < 4000; trial++ {
		src := make([]float32, rng.Intn(71))
		// Most rows share one exponent (an embedding row); every eighth is
		// raw bit patterns, which is where the non-finite values come from.
		exp := uint32(rng.Intn(255)) << 23
		for i := range src {
			u := rng.Uint64()
			switch {
			case trial%8 == 7:
				src[i] = math.Float32frombits(uint32(u))
			case u%16 == 0:
				src[i] = math.Float32frombits(uint32(u>>32) & (1 << 31)) // ±0
			default:
				src[i] = math.Float32frombits(uint32(u>>32)&0x807fffff | exp)
			}
		}
		if trial%8 == 6 && len(src) > 0 {
			src[rng.Intn(len(src))] = nonFinite[trial/8%3]
		}
		if trial%8 == 4 && len(src) > 0 {
			src[0] = math.MaxFloat32 // 127*scale rounds past MaxFloat32: the ulp nudge
		}
		if trial%8 == 5 && len(src) > 1 {
			// Codes k+0.5 of a row whose maxabs is 127: the rounding ties.
			src[0] = 127
			for i := 1; i < len(src); i++ {
				src[i] = float32(rng.Intn(253)-126) + 0.5
			}
		}
		requireI8MatchesReference(t, src)
	}
}

// i8Rows returns the rows of length n the int8 differential grid runs, by
// name. Each non-empty one takes the assembly body on the vector path —
// normals with ±0 and denormals mixed in, rows whose scaled values sit
// exactly on k+0.5 (a tie goes away from zero, never to even), a maxabs of
// ±MaxFloat32 (the scale's ulp nudge) — unless its name starts "total:":
// those must take the total path in Go on both (a NaN or an infinity
// anywhere, and a denormal maxabs, whose scale's reciprocal overflows).
func i8Rows(rng *RNG, n int) map[string][]float32 {
	rows := map[string][]float32{}
	row := func(name string, v func(i int) float32) {
		r := make([]float32, n)
		for i := range r {
			r[i] = v(i)
		}
		rows[name] = r
	}
	row("normal", func(i int) float32 {
		switch u := rng.Uint64(); {
		case i > 0 && u%8 == 0:
			return math.Float32frombits(uint32(u>>32) & (1 << 31)) // ±0
		case i > 0 && u%8 == 1:
			return math.Float32frombits(uint32(u>>32)&0x807fffff | 1) // a denormal
		default:
			return float32(rng.NormFloat64()) * 0.05
		}
	})
	for _, e := range []float64{-20, 0, 30} {
		// The scale is 127*2^e/127 = 2^e, so v*inv is k+0.5 exactly.
		p := float32(math.Ldexp(1, int(e)))
		row(fmt.Sprintf("ties-2^%g", e), func(i int) float32 {
			if i == n-1 {
				return -127 * p
			}
			return (float32(rng.Intn(253)-126) + 0.5) * p
		})
	}
	row("nudge", func(i int) float32 {
		if i == 0 {
			return -math.MaxFloat32
		}
		return float32(rng.NormFloat64()) * 1e37
	})
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		at := rng.Intn(max(n, 1))
		row("total:"+fmt.Sprint(bad), func(i int) float32 {
			if i == at {
				return bad
			}
			return float32(rng.NormFloat64())
		})
	}
	row("total:denormal", func(i int) float32 {
		return math.Float32frombits(uint32(rng.Uint64())&0x807fffff | 1)
	})
	return rows
}

// TestRoundTripI8VectorMatchesGeneric compares RoundTripI8 on the vector
// kernel with the generic loops bit for bit over every length 0-67 (empty,
// below one vector, whole vectors, every tail) at every offset 0-7 of the
// buffers (unaligned on purpose), with dst a separate row and dst the source
// row itself. A canary on either side of dst proves that neither path writes
// outside it, and the separate source row must come back untouched.
func TestRoundTripI8VectorMatchesGeneric(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this machine: the generic loops are the only path")
	}
	defer func(prev bool) { vectorKernel = prev }(vectorKernel)
	const canary = 12345.5
	rng := NewRNG(31)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			for name, src := range i8Rows(rng, n) {
				if _, _, finite := i8Scale(src); n > 0 && finite == strings.HasPrefix(name, "total:") {
					t.Fatalf("%s n=%d: i8Scale says finite=%v", name, n, finite)
				}
				for _, alias := range []bool{false, true} {
					var got [2][]float32
					for path, vector := range []bool{false, true} {
						buf := make([]float32, off+1+n+1)
						buf[off], buf[off+1+n] = canary, canary
						dst := buf[off+1:][:n]
						in := append(make([]float32, (off+5)%8), src...)[(off+5)%8:]
						if alias {
							copy(dst, src)
							in = dst
						}
						vectorKernel = vector
						RoundTripI8(dst, in)
						if !alias && !slices.Equal(bitsOf(in), bitsOf(src)) {
							t.Fatalf("%s n=%d offset=%d vector=%v: the source was written", name, n, off, vector)
						}
						got[path] = buf
					}
					for j := range got[0] {
						if math.Float32bits(got[0][j]) != math.Float32bits(got[1][j]) {
							t.Fatalf("%s n=%d offset=%d alias=%v: element %d is %x on the vector kernel, %x on the generic loops",
								name, n, off, alias, j-off-1, math.Float32bits(got[1][j]), math.Float32bits(got[0][j]))
						}
					}
					if got[1][off] != canary || got[1][off+1+n] != canary {
						t.Fatalf("%s n=%d offset=%d alias=%v: the vector kernel wrote outside dst", name, n, off, alias)
					}
				}
			}
		}
	}
}

// bitsOf returns the bit patterns of a row, so rows holding NaN compare.
func bitsOf(row []float32) []uint32 {
	b := make([]uint32, len(row))
	for i, v := range row {
		b[i] = math.Float32bits(v)
	}
	return b
}

// TestPrefetchRowChangesNothing: the prefetch is a hint, on rows of every
// length and alignment, including one that ends at the last element of its
// allocation.
func TestPrefetchRowChangesNothing(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		buf := make([]float32, 200)
		for i := range buf {
			buf[i] = float32(i)
		}
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				PrefetchRow(buf[off : off+n])
				PrefetchRow(buf[len(buf)-n:])
			}
		}
		for i, v := range buf {
			if v != float32(i) {
				t.Fatalf("element %d changed to %g", i, v)
			}
		}
	})
}

func TestF16ConversionExactCases(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-2, 0xc000},
		{0.5, 0x3800},
		{65504, 0x7bff},
		{-65504, 0xfbff},
		{5.9604645e-08, 0x0001}, // smallest subnormal half
		{6.1035156e-05, 0x0400}, // smallest normal half
	}
	for _, c := range cases {
		if got := F16FromF32(c.f); got != c.h {
			t.Errorf("F16FromF32(%g) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := F16ToF32(c.h); got != c.f {
			t.Errorf("F16ToF32(%#04x) = %g, want %g", c.h, got, c.f)
		}
	}
}

func TestF16Saturation(t *testing.T) {
	for _, v := range []float32{70000, float32(math.Inf(1)), math.MaxFloat32} {
		if got := F16ToF32(F16FromF32(v)); got != F16MaxValue {
			t.Errorf("round-trip of %g = %g, want saturation at %d", v, got, F16MaxValue)
		}
		if got := F16ToF32(F16FromF32(-v)); got != -F16MaxValue {
			t.Errorf("round-trip of %g = %g, want saturation at %d", -v, got, -F16MaxValue)
		}
	}
	if got := F16FromF32(float32(math.NaN())); got != 0 {
		t.Errorf("NaN must quantize to zero, got %#04x", got)
	}
}

func TestQuantizeRowI8RoundTrip(t *testing.T) {
	src := []float32{1.5, -0.25, 0, 127, -128, 0.0001, 42.42}
	q := make([]int8, len(src))
	scale := QuantizeRowI8(q, src)
	if scale <= 0 {
		t.Fatalf("scale = %g, want > 0", scale)
	}
	dq := make([]float32, len(src))
	DequantizeRowI8(dq, q, scale)
	fused := make([]float32, len(src))
	RoundTripI8(fused, src)
	for i := range src {
		if dq[i] != fused[i] {
			t.Errorf("elem %d: fused kernel %g != quantize→dequantize %g", i, fused[i], dq[i])
		}
		if err := math.Abs(float64(dq[i] - src[i])); err > i8Bound(scale) {
			t.Errorf("elem %d: round-trip error %g exceeds bound %g (scale %g)", i, err, i8Bound(scale), scale)
		}
	}
}

func TestQuantizeRowI8Degenerate(t *testing.T) {
	// All-zero and all-non-finite rows quantize to zeros with scale 0.
	for _, src := range [][]float32{
		{0, 0, 0},
		{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))},
		{},
	} {
		q := make([]int8, len(src))
		if scale := QuantizeRowI8(q, src); scale != 0 {
			t.Errorf("degenerate row scale = %g, want 0", scale)
		}
		rt := make([]float32, len(src))
		RoundTripI8(rt, src)
		for i := range rt {
			if rt[i] != 0 {
				t.Errorf("degenerate row round-trip elem %d = %g, want 0", i, rt[i])
			}
		}
	}
	// A row mixing finite and non-finite values scales over the finite ones;
	// infinities saturate and NaN maps to zero.
	src := []float32{2, float32(math.Inf(1)), float32(math.NaN()), -1}
	rt := make([]float32, len(src))
	RoundTripI8(rt, src)
	scale := float32(2) / 127
	if math.Abs(float64(rt[0]-2)) > i8Bound(scale) || math.Abs(float64(rt[3]+1)) > i8Bound(scale) {
		t.Errorf("finite values mangled: %v", rt)
	}
	if rt[1] != rt[0] { // +Inf clamps to +127, the same bucket as maxabs
		t.Errorf("+Inf must saturate at maxabs: got %g, maxabs round-trips to %g", rt[1], rt[0])
	}
	if rt[2] != 0 {
		t.Errorf("NaN must quantize to 0, got %g", rt[2])
	}
}

func TestRoundTripF16MatchesScalar(t *testing.T) {
	src := []float32{3.14159, -2.71828, 1e-6, -65504, 65504, 0.333333}
	q := make([]uint16, len(src))
	QuantizeRowF16(q, src)
	dq := make([]float32, len(src))
	DequantizeRowF16(dq, q)
	fused := make([]float32, len(src))
	RoundTripF16(fused, src)
	for i := range src {
		if dq[i] != fused[i] {
			t.Errorf("elem %d: fused %g != quantize→dequantize %g", i, fused[i], dq[i])
		}
		if err := math.Abs(float64(dq[i] - src[i])); err > f16Bound(src[i]) {
			t.Errorf("elem %d: error %g exceeds bound %g for %g", i, err, f16Bound(src[i]), src[i])
		}
	}
}

// TestF16RoundTripExhaustiveHalves verifies F16ToF32→F16FromF32 is the
// identity on every finite half — the two conversions are exact inverses on
// the representable set.
func TestF16RoundTripExhaustiveHalves(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		if uint16(h)>>10&0x1f == 0x1f {
			continue // Inf/NaN halves are policy-mapped, not round-tripped
		}
		f := F16ToF32(uint16(h))
		back := F16FromF32(f)
		if back != uint16(h) && !(f == 0 && back&0x7fff == 0) {
			t.Fatalf("half %#04x → %g → %#04x", h, f, back)
		}
	}
}

// FuzzQuantRoundTrip is the quantization kernels' safety contract on
// arbitrary rows: quantize→dequantize never panics, always produces finite
// output, agrees with the fused round-trip kernels bit for bit, and stays
// within the per-format error bound for finite in-range inputs — including
// rows laced with NaN and ±Inf.
func FuzzQuantRoundTrip(f *testing.F) {
	addRow := func(vals ...float32) {
		b := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b)
	}
	addRow(1, -2, 3.5, -0.125)
	addRow(0, 0, 0, 0)
	addRow(float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-30)
	addRow(65504, 70000, -65505)
	addRow(math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32)
	addRow(127, 0.5, -0.5, 1.5, -2.5, 126.5, -126.5, 0, -3.5)     // ties, past one vector
	addRow(1e-41, -1e-40, 0, math.SmallestNonzeroFloat32, -1e-39) // a denormal maxabs
	f.Add([]byte{1, 2, 3})                                        // ragged tail, decodes to an empty row

	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 4
		if n > 4096 {
			n = 4096
		}
		src := make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}

		// int8, on every path the machine has: both kernels must match the
		// scalar reference, and the scalar pipeline and the fused kernel must
		// agree exactly.
		defer func(prev bool) { vectorKernel = prev }(vectorKernel)
		for _, vectorKernel = range kernelPaths() {
			requireI8MatchesReference(t, src)
			q := make([]int8, n)
			scale := QuantizeRowI8(q, src)
			dq := make([]float32, n)
			DequantizeRowI8(dq, q, scale)
			fused := make([]float32, n)
			RoundTripI8(fused, src)
			for i, v := range src {
				if dq[i] != fused[i] {
					t.Fatalf("i8 elem %d (vector %v): fused %g != scalar %g", i, vectorKernel, fused[i], dq[i])
				}
				if math.IsNaN(float64(fused[i])) || math.IsInf(float64(fused[i]), 0) {
					t.Fatalf("i8 elem %d (vector %v): non-finite output %g from input %g", i, vectorKernel, fused[i], v)
				}
				finite := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
				if finite && scale > 0 && !math.IsInf(float64(float32(1)/scale), 0) {
					if err := math.Abs(float64(fused[i] - v)); err > i8Bound(scale) {
						t.Fatalf("i8 elem %d (vector %v): error %g exceeds bound %g (v=%g scale=%g)", i, vectorKernel, err, i8Bound(scale), v, scale)
					}
				}
			}
		}

		// fp16: same agreement and totality contract.
		h := make([]uint16, n)
		QuantizeRowF16(h, src)
		dqh := make([]float32, n)
		DequantizeRowF16(dqh, h)
		fusedh := make([]float32, n)
		RoundTripF16(fusedh, src)
		for i, v := range src {
			if dqh[i] != fusedh[i] {
				t.Fatalf("f16 elem %d: fused %g != scalar %g", i, fusedh[i], dqh[i])
			}
			if math.IsNaN(float64(fusedh[i])) || math.IsInf(float64(fusedh[i]), 0) {
				t.Fatalf("f16 elem %d: non-finite output %g from input %g", i, fusedh[i], v)
			}
			finite := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
			if finite && math.Abs(float64(v)) <= F16MaxValue {
				if err := math.Abs(float64(fusedh[i] - v)); err > f16Bound(v) {
					t.Fatalf("f16 elem %d: error %g exceeds bound %g for %g", i, err, f16Bound(v), v)
				}
			}
		}
	})
}

// BenchmarkRoundTripI8 is the warm tier's fused dequantize-gather on one
// embedding row of the benchmark models' dimension.
func BenchmarkRoundTripI8(b *testing.B) {
	b.Run("64", func(b *testing.B) {
		rng := NewRNG(1)
		src := make([]float32, 64)
		for i := range src {
			src[i] = float32(rng.NormFloat64()) * 0.05
		}
		dst := make([]float32, len(src))
		b.ReportAllocs()
		for b.Loop() {
			RoundTripI8(dst, src)
		}
		b.ReportMetric(float64(len(src))*float64(b.N)/b.Elapsed().Seconds(), "elem/s")
	})
}
