// Package pipeline implements the training-pipeline timing models that the
// paper evaluates against each other: the hybrid CPU-GPU baseline
// (Intel-optimized DLRM), XDL's parameter server, FAE's static popularity
// scheduler, the GPU-only HugeCTR mode, the lookahead ScratchPipe-Ideal,
// a CPU-based Hotline variant, and Hotline itself.
//
// Every pipeline consumes the same Workload (model shapes, batch size,
// system config, measured popularity statistics) and the same cost models,
// so differences between pipelines come only from where embeddings live and
// what overlaps with what — the paper's actual claim surface.
//
// In the DESIGN.md layering the package sits above internal/cost and
// internal/sim and below internal/experiments. Workloads carry measured
// inputs from the functional layers: MeasureStats probes popular-input and
// cold-lookup fractions, and MeasureShard (backed by internal/shard)
// replaces the analytic fractions with cache hit-rates and all-to-all
// volumes measured against real sharded-cache state.
package pipeline
