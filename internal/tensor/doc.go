// Package tensor provides the dense float32 linear-algebra kernels used by
// the functional training layer (MLPs, feature interaction, attention).
//
// The package is deliberately small: recommendation models need dense GEMM,
// element-wise products and updates, bias broadcast, and a seeded RNG for reproducible
// initialisation. Everything operates on row-major Matrix values.
//
// The GEMM family and the dense update run on one micro-kernel: AxpyRows
// adds a list of scaled source rows to one destination row, and
// axpyStrided is the same body reading its terms in place (below). The
// embedding bag runs on two siblings of it in the same file: AddRows is
// AxpyRows with every factor 1 and no multiply (the pooled sum
// and its adjoint), and AxpyIntoRows has one destination row per term
// instead of one for all (the sparse SGD update, with the factor -lr).
// AddSmallBags and AddSmallSegments are AddRows over a whole run of bags too
// small for a call each (the one-hot lookup and its adjoint): one call walks
// the bag list, checks every index before reading its row, and returns where
// the first larger bag starts. On amd64 with AVX2 the kernel is assembly
// (axpy_amd64.s), every body's hot loop heads aligned to 64 bytes (PCALIGN),
// so no link address moves a loop across a cache line: eight
// destination elements per instruction, up to 64 of them held in registers
// while every term of the list is added, a masked last vector. Every lane is
// a different output element, and each element's own chain is untouched:
// its products are added in list order, each rounded to float32 by VMULPS
// before VADDPS adds it — never a fused multiply-add — exactly as the
// generic Go loops (axpy4, axpy1; add4, AddRow) write float32(a*b). Those loops
// are the only path on every other machine and the reference the assembly is tested
// against bit for bit. The machine picks the path once, from CPUID, when the
// package loads; there is no flag, option, environment variable or build tag
// that does, and callers cannot tell which one ran.
//
// The warm tier's int8 round trip (RoundTripI8) follows the same rules in
// the same file: its finite path — the sign-masked scan, then per element a
// VMULPS by 1/scale, a 0.5 carrying the product's sign, VADDPS, the
// truncating VCVTTPS2DQ that Go's int32(f) is, VCVTDQ2PS and a VMULPS by the
// scale — is the Go loop's float32 operations eight lanes at a time, with
// the Go loop kept as its reference; the scale, the total path for rows with
// a NaN or an infinity, and fp16 stay in Go. PrefetchRow is the one hint in
// the package: PREFETCHT0 on every line of a row the caller will read soon
// (the warm-tier fill, whose rows miss by construction), a no-op without the
// vector kernel.
//
// MatMul and MatMulTransA drive the kernel from one loop (axpyRowsRange,
// which reads the left operand through a pair of strides), a block of 64
// terms of a row at a time, and skip every term whose left factor is zero.
// A block either goes to the kernel in place (axpyStrided: factors by
// stride, source rows by the right operand's row stride, a zero factor
// skipped by a branch) or is first compacted into a list of its non-zero
// terms without a branch (compact, then the list body), since a ReLU
// output's zeros fall at random; each row takes the form the zeros of the
// row before it favour, and both leave the same bits. With one output
// column there is one chain per output element, so the elements go in the
// lanes (gemvLanes, a zero factor's lane adding -0): MatMulTransA reads
// them off the left operand's rows, MatMul off a transposed block of them.
// A dot product's lanes
// are not independent output elements, so nothing here computes one as
// such: MatMulTransB packs the transpose of its right operand once per call
// and accumulates scaled rows of it, which is the dot product's own chain
// for every output element (ascending inner index from +0, no term
// skipped). Blocking changes which independent elements are computed
// together and never an element's own chain (DESIGN.md, "Determinism
// contract").
//
// nn.DotInteraction runs on the lane bodies in lanes.go, with one sample in
// each of the eight lanes of a vector: TransposeBlock moves a group of eight
// samples' vectors into lane blocks and the results back out (an AVX2 8x8
// transpose body, Go loops at the edges); DotLanes runs eight pairs' dot
// products in eight accumulators, each lane its own sample's chain from +0
// in ascending component; AxpyLanes runs a gradient's chains over the other
// vectors, each lane scaled by its own sample's pair gradient and -0
// selected in place of the product where that gradient is zero. The same
// rules hold: VMULPS then VADDPS, never fused, the generic Go loops as the
// only path elsewhere and the reference the assembly is tested against bit
// for bit.
//
// Above a size threshold the GEMM and element-wise kernels shard their
// independent output rows/elements across the par worker pool. Each output
// element is always computed by one goroutine with the serial loop's exact
// operation order, so results are bit-identical for every worker count.
//
// In the DESIGN.md layering this is the bottom of the functional stack:
// nn, embedding and model all build on these kernels.
//
//hotline:deterministic
package tensor
