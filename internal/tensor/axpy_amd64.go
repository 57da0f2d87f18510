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
