// Package serve is the online-inference side of the substrate: the paper's
// target systems train continuously but spend most of their life answering
// recommendation requests, and this package makes that half measurable.
//
// Three pieces compose:
//
//   - Server wraps a model in predict replicas (weight-sharing shadows with
//     private scratch). Requests run beside each other and beside the
//     trainer's forward and backward passes — every one of them only reads
//     parameters — and are ordered against the one moment parameters move,
//     the update, by the lock of the model itself: model.ServePredictInto
//     holds its read side for one forward, model.ApplyUpdate its write side
//     for one step's update. Every answer is therefore the read-path
//     prediction at some step boundary. Train only keeps two trainers apart,
//     and its step must update through a train.Trainer or
//     model.Model.TrainStep (they bracket; hand-written weight writes are
//     not ordered against requests). Predictions take the bags' read-only
//     ServeForward path — no scatter, no prefetch-window interaction, no
//     device-cache write, serve traffic booked separately — so a mixed
//     train+serve run leaves training bit-identical to a train-only run, its
//     cache counts included.
//
//   - Corpus is a deterministic request stream drawn from the Zipf/drifting
//     generator (internal/data), one slice of batches per simulated day, so
//     load runs exercise exactly the popularity churn the device caches are
//     built for.
//
//   - RunLoad replays a corpus at a target QPS with bounded parallel request
//     players (par.Go). The schedule is open-loop — request i is due at
//     start + i/QPS regardless of earlier completions, and latency is
//     measured from that due time — so tail percentiles include queueing
//     delay once the server saturates instead of hiding it (no coordinated
//     omission). SaturationSweep steps the rate across a grid and Knee reads
//     off the highest rate whose p99 stays inside a budget.
//
// Latency percentiles are exact nearest-rank values over the full sample
// set (Summarize), never histogram approximations, so tests can assert them
// against synthetic streams.
package serve
