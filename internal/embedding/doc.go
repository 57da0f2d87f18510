// Package embedding implements the sparse side of recommendation models:
// embedding tables with sum-pooled bag lookups (the EmbeddingBag operator),
// deterministic sparse gradients and SGD updates, the two-tier
// (GPU-HBM / CPU-DRAM) placement map that Hotline's access-aware layout
// produces, and the multi-node ShardedBag: a Table whose lookups and
// updates are routed through a shard.Service. Every kernel lives once, in
// table.go; the sharded bag adds routing, accounting and the one loop that
// pools rows a gather window staged.
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
