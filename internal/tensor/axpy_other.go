//go:build !amd64

package tensor

func hasAVX2() bool { return false }

func axpyRowsAVX2(dst *float32, n int, rows *[]float32, nrows int, sel *int32, facs *float32, terms int) bool {
	panic("tensor: no vector kernel on this architecture")
}

func addRowsAVX2(dst *float32, n int, rows *[]float32, terms int) bool {
	panic("tensor: no vector kernel on this architecture")
}

func axpyIntoRowsAVX2(dst *float32, nrows, n int, at *int32, count int, src *float32, a float32) bool {
	panic("tensor: no vector kernel on this architecture")
}

func maxAbsBitsAVX2(src *float32, n int) uint32 {
	panic("tensor: no vector kernel on this architecture")
}

func roundTripI8AVX2(dst, src *float32, n int, inv, scale float32) {
	panic("tensor: no vector kernel on this architecture")
}

func prefetchLines(p *float32, n int) {
	panic("tensor: no vector kernel on this architecture")
}

func dotLanesAVX2(dst, a, b *float32, stride, pairs, comps int) {
	panic("tensor: no vector kernel on this architecture")
}

func axpyLanesAVX2(dst, start *float32, rows int, x *float32, stride int, facs *float32, nfacs int, at *int32, terms int) bool {
	panic("tensor: no vector kernel on this architecture")
}

func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride int, rowTiles, colTiles int) {
	panic("tensor: no vector kernel on this architecture")
}
