package tensor

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// setVectorKernel puts the package on the vector kernel or on the generic
// loops until the test ends. The dispatch variable is package state, so a
// test that calls this must not run in parallel with another.
func setVectorKernel(t *testing.T, on bool) {
	t.Helper()
	if on && !hasAVX2() {
		t.Skip("no AVX2 on this machine: the generic loops are the only path")
	}
	prev := vectorKernel
	vectorKernel = on
	t.Cleanup(func() { vectorKernel = prev })
}

// onBothPaths runs test once on the vector kernel and once on the generic
// loops.
func onBothPaths(t *testing.T, test func(*testing.T)) {
	t.Run("vector", func(t *testing.T) {
		setVectorKernel(t, true)
		test(t)
	})
	t.Run("generic", func(t *testing.T) {
		setVectorKernel(t, false)
		test(t)
	})
}

// kernelPaths lists the values of vectorKernel this machine can run: the
// generic loops, then the vector kernel where there is AVX2. A fuzz target,
// which cannot start subtests, sets the variable from it directly.
func kernelPaths() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestVectorPathSelected fails when the machine has AVX2 and the package is
// not using it, so a CI run cannot quietly test the generic loops twice. On
// Linux the kernel's own view (/proc/cpuinfo) is checked against the CPUID
// probe too, so a probe that wrongly says no is caught as well.
func TestVectorPathSelected(t *testing.T) {
	if runtime.GOARCH == "amd64" {
		if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			if listed := strings.Contains(string(info), " avx2"); listed != hasAVX2() {
				t.Errorf("/proc/cpuinfo lists avx2: %v, but the CPUID probe says %v", listed, hasAVX2())
			}
		}
	}
	if vectorKernel != hasAVX2() {
		t.Fatalf("vector kernel in use: %v, but AVX2 available: %v", vectorKernel, hasAVX2())
	}
	t.Logf("AVX2 %v: dense kernels on the %s path", hasAVX2(), map[bool]string{true: "vector", false: "generic"}[vectorKernel])
}

// TestKernelReadsSliceHeadersAsLaidOut pins what the assembly assumes about
// a []float32 header: three words, the data pointer first, the length second.
func TestKernelReadsSliceHeadersAsLaidOut(t *testing.T) {
	row := make([]float32, 5, 9)
	words := (*[3]uintptr)(unsafe.Pointer(&row))
	if unsafe.Sizeof(row) != 3*unsafe.Sizeof(uintptr(0)) || words[0] != uintptr(unsafe.Pointer(&row[0])) || words[1] != 5 {
		t.Fatalf("slice header is not {data, len, cap}: size %d, words %v", unsafe.Sizeof(row), *words)
	}
}

// tameValues and wildValues are what the differential test draws factors and
// elements from, beside unit normals. The tame ones keep every sum finite, so
// a reordered chain or a fused multiply-add shows in the low bits: both zeros,
// denormals, and magnitudes whose products lose bits to rounding. The wild
// ones overflow, and bring the infinities and a NaN.
var (
	tameValues = []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.1, -0.3, 3, 1e-3, 16777217, -1.0000001,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-41, 1e-20,
	}
	wildValues = []float32{
		-1e20, math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
)

// sameBits reports whether a and b hold the same bits, any NaN matching any
// NaN (which NaN survives when two meet is not pinned).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestVectorKernelsMatchGeneric runs AxpyRows, AddRows and
// AxpyIntoRows on the vector kernel and on the generic loops and compares every
// bit: destination
// lengths 0-67 (empty, below one vector, whole vectors, every tail),
// destination and sources starting at every offset 0-7 of their buffers
// (unaligned on purpose), sources longer than the destination, 0-9 terms and
// the counts around the block boundary. A canary element on either side of
// the destination proves that neither path writes outside it. The lane
// bodies (DotLanes, AxpyLanes), the GEMM's in-place kernel (axpyStrided), the
// one-column body (gemvLanes), TransposeBlock and the small-bag bodies
// (AddSmallBags, AddSmallSegments) follow, each over its own shapes.
func TestVectorKernelsMatchGeneric(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this machine: the generic loops are the only path")
	}
	defer func(prev bool) { vectorKernel = prev }(vectorKernel)
	const canary = 12345.5
	rng := NewRNG(19)
	wild := false // every other case is tame
	draw := func() float32 {
		switch u := rng.Uint64(); {
		case u&1 == 0:
			return float32(rng.NormFloat64())
		case wild && u&6 == 0:
			return wildValues[u>>3%uint64(len(wildValues))]
		default:
			return tameValues[u>>3%uint64(len(tameValues))]
		}
	}
	kernels := []struct {
		name string
		fn   func(dst []float32, rows [][]float32, facs []float32)
	}{
		{"AxpyRows", AxpyRows},
		{"AddRows", func(dst []float32, rows [][]float32, _ []float32) { AddRows(dst, rows) }},
	}
	for _, terms := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, termBlock - 1, termBlock, termBlock + 1, 2*termBlock + 1} {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				wild = !wild
				rows := make([][]float32, terms)
				facs := make([]float32, terms)
				bufs := make([][]float32, terms) // the sources with their margins
				var saved []float32              // and a copy of them all
				for q := range rows {
					// Each source starts at its own offset and is up to
					// three elements longer than the destination.
					buf := make([]float32, (off+q)%8+n+q%4)
					for j := range buf {
						buf[j] = draw()
					}
					rows[q], facs[q] = buf[(off+q)%8:], draw()
					bufs[q], saved = buf, append(saved, buf...)
				}
				start := make([]float32, off+1+n+1)
				for j := range start {
					start[j] = draw()
				}
				start[off], start[off+1+n] = canary, canary
				for _, k := range kernels {
					var got [2][]float32
					for path, vector := range []bool{false, true} {
						got[path] = append([]float32(nil), start...)
						vectorKernel = vector
						k.fn(got[path][off+1:][:n], rows, facs)
					}
					for j := range start {
						if !sameBits(got[0][j], got[1][j]) {
							t.Fatalf("%s n=%d offset=%d terms=%d: element %d is %x on the vector kernel, %x on the generic loops",
								k.name, n, off, terms, j-off-1, math.Float32bits(got[1][j]), math.Float32bits(got[0][j]))
						}
					}
					if got[1][off] != canary || got[1][off+1+n] != canary {
						t.Fatalf("%s n=%d offset=%d terms=%d: the vector kernel wrote outside dst", k.name, n, off, terms)
					}
					at := 0
					for q, buf := range bufs {
						for j, v := range buf {
							if math.Float32bits(v) != math.Float32bits(saved[at+j]) {
								t.Fatalf("%s n=%d offset=%d terms=%d: source %d was written at %d", k.name, n, off, terms, q, j)
							}
						}
						at += len(buf)
					}
				}
			}
		}
	}

	// AxpyIntoRows has one destination row per term: the same row widths and
	// offsets, 0-9 terms into a matrix of three rows more than that, with a
	// row listed twice (the second update starts from the first's result),
	// the first and the last row, and a canary on either side of the matrix
	// and of the sources.
	for _, terms := range []int{0, 1, 2, 3, 4, 5, 9} {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				wild = !wild
				nrows := terms + 3
				at := make([]int32, terms)
				for i := range at {
					at[i] = int32(rng.Intn(nrows))
				}
				switch {
				case terms >= 3:
					at[0], at[1], at[terms-1] = int32(nrows-1), 0, int32(nrows-1)
				case terms == 2:
					at[0], at[1] = int32(nrows-1), 0
				}
				start := make([]float32, off+1+nrows*n+1)
				src := make([]float32, (off+3)%8+1+terms*n+1)
				for _, buf := range [][]float32{start, src} {
					for j := range buf {
						buf[j] = draw()
					}
				}
				srcAt := (off+3)%8 + 1
				start[off], start[off+1+nrows*n], src[srcAt-1], src[srcAt+terms*n] = canary, canary, canary, canary
				savedSrc, a := append([]float32(nil), src...), draw()
				var got [2][]float32
				for path, vector := range []bool{false, true} {
					got[path] = append([]float32(nil), start...)
					vectorKernel = vector
					AxpyIntoRows(FromSlice(nrows, n, got[path][off+1:][:nrows*n]), at, src[srcAt:][:terms*n], a)
				}
				for j := range start {
					if !sameBits(got[0][j], got[1][j]) {
						t.Fatalf("AxpyIntoRows n=%d offset=%d terms=%d rows %v: element %d is %x on the vector kernel, %x on the generic loops",
							n, off, terms, at, j-off-1, math.Float32bits(got[1][j]), math.Float32bits(got[0][j]))
					}
				}
				if got[1][off] != canary || got[1][off+1+nrows*n] != canary {
					t.Fatalf("AxpyIntoRows n=%d offset=%d terms=%d: the vector kernel wrote outside dst", n, off, terms)
				}
				for j, v := range src {
					if math.Float32bits(v) != math.Float32bits(savedSrc[j]) {
						t.Fatalf("AxpyIntoRows n=%d offset=%d terms=%d: the source was written at %d", n, off, terms, j-srcAt)
					}
				}
			}
		}
	}

	// run calls fn on a copy of dst on each path and fails unless both
	// leave the same bits, with a canary on either side of dst untouched.
	run := func(what string, dst []float32, fn func(dst []float32)) {
		t.Helper()
		var got [2][]float32
		for path, vector := range []bool{false, true} {
			got[path] = append(append([]float32{canary}, dst...), canary)
			vectorKernel = vector
			fn(got[path][1 : 1+len(dst)])
		}
		for j := range got[0] {
			if !sameBits(got[0][j], got[1][j]) {
				t.Fatalf("%s: element %d is %x on the vector kernel, %x on the generic loops",
					what, j-1, math.Float32bits(got[1][j]), math.Float32bits(got[0][j]))
			}
		}
		if got[1][0] != canary || got[1][len(dst)+1] != canary {
			t.Fatalf("%s: the vector kernel wrote outside dst", what)
		}
	}
	fill := func(n int) []float32 {
		buf := make([]float32, n)
		for j := range buf {
			buf[j] = draw()
		}
		return buf
	}

	// DotLanes: 0-17 blocks (a whole tile of eight and every remainder on
	// either side of it) of 0-17 rows, blocks a row or two further apart
	// than they are long.
	for pairs := 0; pairs <= 17; pairs++ {
		for comps := 0; comps <= 17; comps++ {
			wild = !wild
			stride := Lanes * (comps + pairs%3)
			a, b := fill(Lanes*comps), fill(max(0, (pairs-1)*stride+Lanes*comps))
			run(fmt.Sprintf("DotLanes pairs=%d comps=%d", pairs, comps), fill(Lanes*pairs),
				func(dst []float32) { DotLanes(dst, a, b, stride, pairs, comps) })
		}
	}

	// AxpyLanes: 1-8 live lanes (the lanes past them have zero factors, as a
	// partial group's do), 0-9 terms, 0-17 rows (a tile of eight and every
	// tail on either side of it), factor rows listed in any order, twice,
	// and a row of zeros; chains started from +0, from dst itself and from
	// a block of their own.
	for live := 1; live <= Lanes; live++ {
		for terms := 0; terms <= 9; terms++ {
			for rows := 0; rows <= 17; rows++ {
				wild = !wild
				nfacs := terms + 2
				facs := fill(Lanes * nfacs)
				for r := range nfacs {
					clear(facs[Lanes*r+live : Lanes*(r+1)])
				}
				clear(facs[Lanes*(nfacs-1):])
				at := make([]int32, terms)
				for u := range at {
					at[u] = int32(rng.Intn(nfacs))
				}
				stride := Lanes * (rows + terms%2)
				x := fill(max(0, (terms-1)*stride+Lanes*rows))
				start := fill(Lanes * rows)
				for from, name := range []string{"+0", "dst", "start"} {
					run(fmt.Sprintf("AxpyLanes live=%d terms=%d rows=%d at=%v from %s", live, terms, rows, at, name), fill(Lanes*rows),
						func(dst []float32) { AxpyLanes(dst, [][]float32{nil, dst, start}[from], x, stride, facs, at) })
				}
			}
		}
	}

	// axpyStrided, the GEMM kernel on its operands in place: 0-67 elements,
	// counts of terms around a tile's and a block's, factors one or three
	// apart, source rows a few elements longer than dst apart. Both paths
	// must also count the same zero factors.
	for _, terms := range []int{1, 2, 3, 4, 5, 9, termBlock - 1, termBlock, termBlock + 1} {
		for n := 0; n <= 67; n++ {
			wild = !wild
			bStride, aStride := n+terms%4, 1+2*(n%2)
			b, a := fill(max(0, (terms-1)*bStride+n)), fill((terms-1)*aStride+1)
			var zeros [2]int
			run(fmt.Sprintf("axpyStrided n=%d terms=%d", n, terms), fill(n), func(dst []float32) {
				if vectorKernel {
					zeros[1] = axpyStrided(dst, b, bStride, a, aStride, terms)
				} else {
					zeros[0] = axpyStrided(dst, b, bStride, a, aStride, terms)
				}
			})
			if zeros[0] != zeros[1] {
				t.Fatalf("axpyStrided n=%d terms=%d: %d zero factors on the vector kernel, %d on the generic loop", n, terms, zeros[1], zeros[0])
			}
		}
	}

	// gemvLanes, the one-column GEMM with the elements in the lanes: 0-67
	// elements (every tile and tail), 1-33 terms, rows of x a few elements
	// longer than dst apart.
	for _, terms := range []int{1, 2, 3, 5, 9, 33} {
		for n := 0; n <= 67; n++ {
			wild = !wild
			stride := n + terms%3
			x, scales := fill(max(0, (terms-1)*stride+n)), fill(terms)
			run(fmt.Sprintf("gemvLanes n=%d terms=%d", n, terms), fill(n),
				func(dst []float32) { gemvLanes(dst, x, stride, scales) })
		}
	}

	// TransposeBlock: 0-17 rows and columns (whole 8x8 tiles and every edge
	// beside them) between strides one or three wider than the block.
	for rows := 0; rows <= 17; rows++ {
		for cols := 0; cols <= 17; cols++ {
			wild = !wild
			srcStride, dstStride := cols+1, rows+3
			src := fill(max(0, (rows-1)*srcStride+cols))
			run(fmt.Sprintf("TransposeBlock %dx%d", rows, cols), fill(max(0, (cols-1)*dstStride+rows)),
				func(dst []float32) { TransposeBlock(dst, dstStride, src, srcStride, rows, cols) })
		}
	}

	// AddSmallBags and AddSmallSegments, the small-bag pool and its adjoint:
	// widths below, at and around a vector and a tile; runs of bags of every
	// length 0 to need-1 (empty ones among them) over a matrix whose first
	// rows are -0, denormals and infinities with NaN, pooled into rows that
	// start at +0 or anywhere; the run reaching the end of the range or
	// stopped by a bag of need rows, first or in the middle. Both paths must
	// return the stop's position and leave its row and those after it alone.
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 64} {
		for _, need := range []int{(32 + n - 1) / n, 5} {
			for _, stop := range []int{-1, 0, 2 * need} {
				wild = !wild
				const rows = 11
				w := FromSlice(rows, n, fill(rows*n))
				for j := range n {
					w.Row(0)[j] = float32(math.Copysign(0, -1))
					w.Row(1)[j] = math.SmallestNonzeroFloat32 * float32(j+1)
					w.Row(2)[j] = []float32{inf, -inf, nan}[j%3]
				}
				saved := w.Clone()
				var lens []int
				for rep := range 3 {
					for l := range need {
						lens = append(lens, (l+rep)%need)
					}
				}
				want := len(lens)
				if stop >= 0 {
					lens = slices.Insert(lens, stop, need)
					want = stop
				}
				bags := make([][]int32, len(lens))
				pairs := []int64{-1, -1, -1} // the segments start past other rows' pairs
				starts := []int32{int32(len(pairs))}
				for b, l := range lens {
					bags[b] = make([]int32, l)
					for q := range bags[b] {
						bags[b][q] = int32(rng.Intn(rows))
						pairs = append(pairs, int64(rng.Uint64()&^0xffffffff)|int64(bags[b][q]))
					}
					starts = append(starts, int32(len(pairs)))
				}
				start := fill(len(bags) * n)
				for b := 0; b < len(bags); b += 2 {
					clear(start[b*n : (b+1)*n])
				}
				bodies := map[string]func(dst []float32) int{
					"AddSmallBags":     func(dst []float32) int { return AddSmallBags(dst, w, bags, need) },
					"AddSmallSegments": func(dst []float32) int { return AddSmallSegments(dst, w, pairs, starts, need) },
				}
				for name, body := range bodies {
					what := fmt.Sprintf("%s n=%d need=%d stop=%d", name, n, need, stop)
					run(what, start, func(dst []float32) {
						if got := body(dst); got != want {
							t.Fatalf("%s: returned %d on the %v path, want %d", what, got, vectorKernel, want)
						}
						for j := want * n; j < len(dst); j++ {
							if math.Float32bits(dst[j]) != math.Float32bits(start[j]) {
								t.Fatalf("%s: element %d, at or past the stop, was written on the %v path", what, j, vectorKernel)
							}
						}
					})
					if at, ok := bitsEqual(w, saved); !ok {
						t.Fatalf("%s: the row matrix was written at %d", what, at)
					}
				}
			}
		}
	}
}

// TestSmallBagBodiesRejectBadIndices: an index that is not a row of the
// matrix, a segment that runs past the pairs or backwards and a destination
// of the wrong size are caller bugs, reported as a panic before the row or
// pair is read, on both paths.
func TestSmallBagBodiesRejectBadIndices(t *testing.T) {
	cases := map[string]func(){
		"AddSmallBags short dst": func() { AddSmallBags(make([]float32, 17), New(3, 9), [][]int32{{1}, {0}}, 4) },
		"AddSmallSegments segment past the pairs": func() {
			AddSmallSegments(make([]float32, 18), New(3, 9), []int64{1, 2}, []int32{0, 1, 3}, 4)
		},
		"AddSmallSegments backward segment": func() {
			AddSmallSegments(make([]float32, 18), New(3, 9), []int64{1, 2}, []int32{0, 2, 1}, 4)
		},
		"AddSmallSegments short dst": func() {
			AddSmallSegments(make([]float32, 19), New(3, 9), []int64{1, 2}, []int32{0, 1, 2}, 4)
		},
	}
	for _, bad := range []int32{3, -1, math.MaxInt32, math.MinInt32} {
		cases[fmt.Sprintf("AddSmallBags index %d", bad)] = func() {
			AddSmallBags(make([]float32, 18), New(3, 9), [][]int32{{1}, {0, bad}}, 4)
		}
		cases[fmt.Sprintf("AddSmallSegments row %d", bad)] = func() {
			AddSmallSegments(make([]float32, 18), New(3, 9), []int64{1, 0, int64(uint32(bad))}, []int32{0, 1, 3}, 4)
		}
	}
	onBothPaths(t, func(t *testing.T) {
		for name, call := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				call()
			}()
		}
	})
}

// TestLaneBodiesMatchScalarReference pins what the generic lane loops compute
// against plain scalar chains (the bodies are compared with those loops
// above): DotLanes is one dot product per lane from +0, AxpyLanes one
// gradient chain per lane whose zero factors add nothing, TransposeBlock
// the transpose. Run on both paths.
func TestLaneBodiesMatchScalarReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := NewRNG(23)
		const pairs, comps, terms = 11, 9, 5
		a, b := benchOperand(1, Lanes*comps, false, rng).Data, benchOperand(pairs, Lanes*comps, false, rng).Data
		dst := make([]float32, Lanes*pairs)
		DotLanes(dst, a, b, Lanes*comps, pairs, comps)
		for k := range pairs {
			for l := range Lanes {
				var want float32
				for c := range comps {
					want += float32(a[Lanes*c+l] * b[Lanes*(k*comps+c)+l])
				}
				if math.Float32bits(dst[Lanes*k+l]) != math.Float32bits(want) {
					t.Fatalf("DotLanes block %d lane %d = %v, scalar chain %v", k, l, dst[Lanes*k+l], want)
				}
			}
		}

		negZero := float32(math.Copysign(0, -1))
		inf := float32(math.Inf(1))
		facs := []float32{0, negZero, 2, 0, -1, 0.5, 0, 3} // one factor row
		x := benchOperand(terms, Lanes*comps, false, rng).Data
		x[1] = inf // lane 1 of term 0 meets a -0 factor
		start := make([]float32, Lanes*comps)
		start[0] = negZero // lane 0 has only zero factors: stays -0
		got := make([]float32, len(start))
		AxpyLanes(got, start, x, Lanes*comps, facs, make([]int32, terms))
		for c := range comps {
			for l := range Lanes {
				want := start[Lanes*c+l]
				for u := range terms {
					if facs[l] != 0 {
						want += float32(facs[l] * x[Lanes*(u*comps+c)+l])
					}
				}
				if math.Float32bits(got[Lanes*c+l]) != math.Float32bits(want) {
					t.Fatalf("AxpyLanes row %d lane %d = %x, scalar chain %x", c, l, math.Float32bits(got[Lanes*c+l]), math.Float32bits(want))
				}
			}
		}

		src := benchOperand(13, 19, false, rng)
		tr := New(19, 13)
		TransposeBlock(tr.Data, 13, src.Data, 19, 13, 19)
		if at, ok := bitsEqual(Transpose(src), tr); !ok {
			t.Fatalf("TransposeBlock element %d differs from the transpose", at)
		}
	})
}

// TestLaneBodiesRejectBadShapes: a block list shorter than the call needs, a
// factor row that facs does not have, a transpose that does not fit its
// destination and operands shorter than their strides say are caller bugs, reported as a panic before the kernel reads
// or writes past a slice, on both paths.
func TestLaneBodiesRejectBadShapes(t *testing.T) {
	cases := map[string]func(){
		"DotLanes short b":   func() { DotLanes(make([]float32, 16), make([]float32, 24), make([]float32, 47), 24, 2, 3) },
		"DotLanes short dst": func() { DotLanes(make([]float32, 15), make([]float32, 24), make([]float32, 48), 24, 2, 3) },
		"AxpyLanes short x": func() {
			AxpyLanes(make([]float32, 16), nil, make([]float32, 31), 16, make([]float32, 8), []int32{0, 0})
		},
		"AxpyLanes ragged dst": func() {
			AxpyLanes(make([]float32, 12), nil, make([]float32, 32), 16, make([]float32, 8), []int32{0, 0})
		},
		"AxpyLanes short start": func() {
			AxpyLanes(make([]float32, 16), make([]float32, 8), make([]float32, 32), 16, make([]float32, 8), []int32{0, 0})
		},
		"AxpyLanes row past facs": func() {
			AxpyLanes(make([]float32, 16), nil, make([]float32, 32), 16, make([]float32, 16), []int32{0, 2})
		},
		"AxpyLanes negative row": func() {
			AxpyLanes(make([]float32, 16), nil, make([]float32, 32), 16, make([]float32, 16), []int32{-1, 0})
		},
		"axpyStrided short b": func() {
			axpyStrided(make([]float32, 8), make([]float32, 17), 10, []float32{1, 1}, 1, 2)
		},
		"axpyStrided short a": func() {
			axpyStrided(make([]float32, 8), make([]float32, 18), 10, []float32{1, 1}, 2, 2)
		},
		"axpyStrided zero factor stride": func() {
			axpyStrided(make([]float32, 8), make([]float32, 18), 10, []float32{1, 1}, 0, 2)
		},
		"gemvLanes short x":        func() { gemvLanes(make([]float32, 8), make([]float32, 17), 10, []float32{1, 1}) },
		"TransposeBlock short dst": func() { TransposeBlock(make([]float32, 63), 8, make([]float32, 64), 8, 8, 8) },
		"TransposeBlock short src": func() { TransposeBlock(make([]float32, 64), 8, make([]float32, 63), 8, 8, 8) },
	}
	onBothPaths(t, func(t *testing.T) {
		for name, call := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				call()
			}()
		}
	})
}

// TestAxpyIntoRowsRejectsRowOutsideDst: a listed row that dst does not have
// is a caller bug, reported as a panic before anything outside dst is
// touched, on both paths.
func TestAxpyIntoRowsRejectsRowOutsideDst(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		for _, bad := range []int32{3, -1, math.MaxInt32, math.MinInt32} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("no panic on row %d of a 3-row matrix", bad)
					}
				}()
				AxpyIntoRows(New(3, 9), []int32{1, bad}, make([]float32, 18), 1)
			}()
		}
	})
}

// TestAxpyRowsRejectsShortRow: a source row shorter than the destination is
// a caller bug, reported as a panic before the kernel reads past the row, on
// both paths and in both bodies.
func TestAxpyRowsRejectsShortRow(t *testing.T) {
	kernels := map[string]func(dst []float32, rows [][]float32){
		"AxpyRows": func(dst []float32, rows [][]float32) { AxpyRows(dst, rows, []float32{1, 1}) },
		"AddRows":  AddRows,
	}
	onBothPaths(t, func(t *testing.T) {
		for name, kernel := range kernels {
			for _, n := range []int{1, 8, 9, 64, 70} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s n=%d: no panic on a source row one element short", name, n)
						}
					}()
					kernel(make([]float32, n), [][]float32{make([]float32, n), make([]float32, n-1)})
				}()
			}
		}
	})
}

// BenchmarkAxpyRows is the micro-kernel alone at the models' row widths (64
// columns: one full tile; 367: tiles, the short tiles and the masked tail)
// with a remainder's, an 8-hot bag's (to read beside BenchmarkAddRows) and a
// full block's worth of terms.
func BenchmarkAxpyRows(b *testing.B) {
	for _, n := range []int{64, 367} {
		for _, terms := range []int{4, 8, termBlock} {
			b.Run(fmt.Sprintf("%dx%d", n, terms), func(b *testing.B) {
				rng := NewRNG(1)
				src := benchOperand(terms, n, false, rng)
				rows := make([][]float32, terms)
				for q := range rows {
					rows[q] = src.Row(q)
				}
				facs := benchOperand(1, terms, false, rng).Data
				dst := make([]float32, n)
				benchKernel(b, n*terms, func() { AxpyRows(dst, rows, facs) })
			})
		}
	}
}

// BenchmarkAddRows is the sum body alone at the bag's shapes: an 8-hot bag
// and a hot row's long adjoint segment at dim 64. BenchmarkAxpyRows at 64x8
// and 64x64 is the same chain with unit factors' worth of multiplies: what
// the sibling body has to beat to exist.
func BenchmarkAddRows(b *testing.B) {
	for _, terms := range []int{8, termBlock} {
		b.Run(fmt.Sprintf("64x%d", terms), func(b *testing.B) {
			src := benchOperand(terms, 64, false, NewRNG(1))
			rows := make([][]float32, terms)
			for q := range rows {
				rows[q] = src.Row(q)
			}
			dst := make([]float32, 64)
			benchKernel(b, 64*terms, func() { AddRows(dst, rows) })
		})
	}
}
