// Package embedding implements the sparse side of recommendation models:
// embedding tables with sum-pooled bag lookups (the EmbeddingBag operator),
// deterministic sparse gradients and SGD updates, the two-tier
// (GPU-HBM / CPU-DRAM) placement map that Hotline's access-aware layout
// produces, and the multi-node ShardedBag: a Table whose lookups and
// updates are routed through a shard.Service. Every kernel's driver lives
// once, in table.go; the sharded bag adds routing, accounting and the one
// loop that pools rows a gather window staged.
//
// The reducer is internal/tensor's: a bag's rows (table rows, staged copies,
// or the output-gradient rows of the adjoint) are resolved into a stack block
// of rowBlock slices and summed by tensor.AddRows, and the sparse SGD update
// is one tensor.AxpyIntoRows call with the factor -lr — AVX2 assembly where
// the machine has it, the generic Go loops elsewhere, bit for bit the
// one-row-at-a-time chain either way. A bag below kernelWork elements over
// all its rows (a one-hot lookup at dim 16) stays on the Go loop,
// tensor.AddRow, one row at a time: a property of the input, decided per bag.
//
// In the DESIGN.md layering the package sits between internal/tensor (raw
// kernels) and internal/model (DLRM/TBSM assembly). Models hold their
// sparse parameters behind the Bag interface, so the single-node Table and
// the sharded implementation interchange freely; both obey the determinism
// contract (bit-identical results for every worker count and, for
// ShardedBag, every node count).
//
//hotline:deterministic
package embedding
