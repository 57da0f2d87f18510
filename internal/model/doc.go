// Package model assembles full recommendation models from the nn and
// embedding substrates: DLRM (RM2, RM3, RM4 and the SYN models) and TBSM
// (RM1, with a behaviour-sequence table and an attention layer), following
// the architectures in the paper's Table II.
//
// A Model supports full functional training (forward, backward, update),
// with gradient accumulation across multiple Backward calls so the Hotline
// executor can run popular and non-popular µ-batches separately and update
// once — the mechanism behind the paper's accuracy-parity proof (Eq. 5).
// What that one update is, is the model's Optimizer: SGD from New, Adagrad
// through SetOptimizer(NewAdagrad), with the rule's state kept by the rule.
//
// In the DESIGN.md layering the package sits between the kernel layers
// (tensor/nn/embedding) and the executors (train). Sparse parameters live
// behind the embedding.Bag interface: ShardEmbeddings swaps the single-node
// tables for shard-service-backed bags without changing any training math,
// and NewShadow provides the weight-sharing shadows the concurrent µ-batch
// executor and the serve replicas need.
//
// The model also owns the one lock that orders serving against training.
// Parameters are only read during a pass, so passes and serve forwards run
// side by side; they move in ApplyUpdate alone, which holds the write side
// while ServePredictInto holds the read side for one forward.
package model
