// Package nn implements the dense neural-network components of DLRM and
// TBSM: linear layers, activations, MLP stacks, the DLRM dot-product feature
// interaction, the TBSM attention layer, binary cross-entropy loss and the
// dense halves of the SGD and Adagrad update rules (internal/model joins
// them to their sparse halves).
//
// All layers use hand-written backpropagation over internal/tensor matrices.
// Every forward call caches what its backward pass needs; Backward must be
// called after Forward with a gradient of the same shape as the forward
// output, and returns the gradient with respect to the layer input.
//
// In the DESIGN.md layering the package sits directly above internal/tensor
// and below internal/model, which assembles these layers into full DLRM and
// TBSM architectures.
//
//hotline:deterministic
package nn
