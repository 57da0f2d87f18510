// Package train provides the functional training executors: the baseline
// full-mini-batch loop and the Hotline executor that fragments every
// mini-batch into popular and non-popular µ-batches (classified by the
// accelerator's EAL) and accumulates their gradients into a single update.
// Executors schedule passes; the update rule and its state are the model's
// (model.Optimizer), applied at the executor's LR.
//
// This is the layer behind the paper's accuracy-parity claim (§IV-A,
// Eq. 5): because L_hotline = L_popular + L_non-popular = L_baseline, both
// executors produce the same updates on the same data, and the Figure 18 /
// Table V metrics coincide.
//
// In the DESIGN.md layering the package sits on top of internal/model and
// internal/accel. NewHotlineSharded additionally runs the same executor on
// shard-service-backed tables (internal/shard) — bit-identical math, plus
// measured cache and all-to-all traffic.
//
//hotline:deterministic
package train
