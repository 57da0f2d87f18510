// Package tensor provides the dense float32 linear-algebra kernels used by
// the functional training layer (MLPs, feature interaction, attention).
//
// The package is deliberately small: recommendation models need dense GEMM,
// element-wise products and updates, bias broadcast, and a seeded RNG for reproducible
// initialisation. Everything operates on row-major Matrix values.
//
// The GEMM family runs on two register-blocked micro-kernels. Axpy4 adds four
// scaled rows to one destination row, which is loaded and stored once per
// four updates; MatMul and MatMulTransA drive it from one loop
// (axpyRowsRange, which reads the left operand through a pair of strides),
// compacting the terms whose left factor is non-zero into blocks of four
// without a branch, since a ReLU output's zeros fall at random. Dot4 carries
// four dot products that share one operand's loads; MatMulTransB computes
// four output columns per pass with it. nn.DotInteraction uses the same two
// kernels. Blocking changes which independent elements are computed together
// and never an element's own chain: products are added in ascending inner
// index, each rounded to float32 before its add, and a term with a zero left
// factor is dropped, not added (DESIGN.md, "Determinism contract").
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
