package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID and XGETBV; internal/cpu cannot be imported).
func hasAVX2() bool

// axpyRowsAVX2 is axpySelected for n >= 1 elements at dst and terms >= 1
// terms, eight elements per instruction. It reports false, leaving dst partly
// updated, when a selection is outside the table or selects a row shorter
// than n; it reads and writes nothing outside the slices it was handed.
//
//go:noescape
func axpyRowsAVX2(dst *float32, n int, rows *[]float32, nrows int, sel *int32, facs *float32, terms int) bool

// axpyStridedAVX2 is axpyStrided for n >= 1 elements at dst, terms >= 1
// terms and aStride >= 1; the caller has checked every length it reads and
// writes. It returns the number of zero factors.
//
//go:noescape
func axpyStridedAVX2(dst *float32, n int, b *float32, bStride int, a *float32, aStride int, terms int) int

// addRowsAVX2 is AddRows for n >= 1 elements at dst and terms >= 1 rows,
// eight elements per instruction. It reports false, leaving dst partly
// updated, when a row is shorter than n; it reads and writes nothing outside
// the slices it was handed.
//
//go:noescape
func addRowsAVX2(dst *float32, n int, rows *[]float32, terms int) bool

// addSmallBagsAVX2 is AddSmallBags for nbags >= 1 bags of rows of n >= 1
// elements, read from the row-major rows x n matrix at w (rows >= 1), the
// bags' output rows consecutive at dst. It returns the position of the first
// bag of need indices or more (nbags when there is none), or -1, leaving the
// bags before it pooled, on meeting an index outside [0, rows); it reads and
// writes nothing outside the slices it was handed.
//
//go:noescape
func addSmallBagsAVX2(dst *float32, n int, bags *[]int32, nbags int, w *float32, rows int, need int) int

// addSmallSegmentsAVX2 is AddSmallSegments for segs >= 1 segments of rows of
// n >= 1 elements, read from the row-major srcRows x n matrix at src
// (srcRows >= 1), the segments' output rows consecutive at dst; pairs may be
// nil when npairs is 0. It returns the position of the first segment of need
// pairs or more (segs when there is none), or -1, leaving the segments before
// it pooled, on meeting a segment outside [0, npairs) or running backwards or
// a row outside [0, srcRows); it reads and writes nothing outside the slices
// it was handed.
//
//go:noescape
func addSmallSegmentsAVX2(dst *float32, n int, src *float32, srcRows int, pairs *int64, npairs int, starts *int32, segs int, need int) int

// axpyIntoRowsAVX2 is AxpyIntoRows for count >= 1 rows of n >= 1 elements
// into the row-major nrows x n matrix at dst. It reports false, leaving the
// rows before it updated, when an at[i] is outside [0, nrows); it reads and
// writes nothing outside dst's nrows*n elements and src's count*n.
//
//go:noescape
func axpyIntoRowsAVX2(dst *float32, nrows, n int, at *int32, count int, src *float32, a float32) bool

// maxAbsBitsAVX2 is maxAbsBits over n >= 1 elements at src, eight per
// instruction; it reads nothing past them.
//
//go:noescape
func maxAbsBitsAVX2(src *float32, n int) uint32

// roundTripI8AVX2 is RoundTripI8's finite path over n >= 1 elements:
// dst[i] = float32(q8Finite(src[i], inv)) * scale, eight per instruction. dst
// may be src; it writes nothing outside dst's n elements.
//
//go:noescape
func roundTripI8AVX2(dst, src *float32, n int, inv, scale float32)

// prefetchLines asks for every 64-byte line holding one of the n >= 1
// elements at p to be brought into the cache (PREFETCHT0). It is a hint: it
// reads nothing and cannot fault.
//
//go:noescape
func prefetchLines(p *float32, n int)

// dotLanesAVX2 is DotLanes for pairs >= 1 blocks of comps >= 1 rows; the
// caller has checked every length it reads and writes.
//
//go:noescape
func dotLanesAVX2(dst, a, b *float32, stride, pairs, comps int)

// axpyLanesAVX2 is AxpyLanes for rows >= 1 rows of dst and terms >= 1 terms,
// start nil for +0. It reports false, leaving dst partly updated, when an
// at[u] is outside [0, nfacs); it reads and writes nothing outside the
// slices it was handed.
//
//go:noescape
func axpyLanesAVX2(dst, start *float32, rows int, x *float32, stride int, facs *float32, nfacs int, at *int32, terms int) bool

// transpose8AVX2 is TransposeBlock for a block of rowTiles >= 1 by colTiles
// >= 1 whole 8x8 tiles; the caller has checked every length it reads and
// writes.
//
//go:noescape
func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride int, rowTiles, colTiles int)

// gemvLanesAVX2 is gemvLanes for n >= 1 elements at dst and terms >= 1
// terms; the caller has checked every length it reads and writes.
//
//go:noescape
func gemvLanesAVX2(dst *float32, n int, x *float32, stride int, s *float32, terms int)
