// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI-§VII) from this repository's substrates, plus the
// design-choice ablations (abl-*) and the multi-node sharded-embedding
// scenarios (mn-*). Each experiment returns a report.Table whose rows
// mirror the paper's series; the tables hotline-bench prints are the
// paper-vs-measured record.
//
// In the DESIGN.md layering this is the top internal layer: experiments
// compose every substrate below (data, model, train, accel, shard,
// pipeline) and the concurrent sweep engine (Sweep/RunAll) fans the
// registry over a bounded worker pool with byte-identical results for any
// worker count. cmd/hotline-bench and hotline.go expose the registry.
package experiments
