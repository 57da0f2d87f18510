// Package shard is the sharded embedding service: it partitions embedding
// table rows across N simulated nodes under a pluggable ownership policy,
// replicates popularity-classified entries into a bounded per-node device
// cache (admitting into free bytes; a row leaves only when the learned hot
// set changes, Service.Relearn), accounts the deterministic all-to-all
// gather/scatter traffic that non-resident rows incur, and can execute
// that traffic asynchronously so gathers overlap with compute.
//
// In the DESIGN.md layering the package sits between internal/cost (whose
// link models price the measured traffic) and internal/embedding (whose
// ShardedBag routes every lookup and gradient through a Service). The
// functional layers stay bit-identical to their single-node counterparts —
// sharding only decides which node a row is routed to and accounted on (on a
// socket fabric, which node process stores it) and what its access costs —
// while the Service's counters turn the paper's Figure-30-style
// multi-node claims from closed-form estimates into measured behaviour:
// cache hit-rates, bytes moved per iteration, all-to-all times, and the
// fraction of gather time left exposed come from replaying real access
// streams against real cache state.
//
// Topology model: samples are dealt round-robin to nodes by batch position
// (NodeOf), and row ownership is one Ownership value: a repeating owner
// schedule under an optional table of pinned rows. Round-robin (row r of
// every table lives on node r mod N, the default) is the schedule 0…N−1;
// capacity-weighted interleaves nodes in proportion to per-node capacity
// (NewCapacityWeightedHBM derives the weights from real per-node HBM byte
// budgets); hot-row-aware is round-robin with each popular row pinned to
// its dominant requester (RequestCounter tallies per-node request counts and
// HotAware pins), shrinking both gather and gradient-scatter volume. Remote lookups first probe the requesting
// node's device cache; misses are gathered over the fabric once per
// iteration (intra-batch dedup) and popularity-classified rows are
// admitted into the cache's free bytes on the way through. A zero cache budget is the
// explicit pure-remote mode: no admissions and no fill traffic.
//
// The unit of fabric work is one window (Staging): PlanGather performs the
// exact accounting walk of RecordGather and also hands out the window to
// stage — the distinct remote rows grouped by owner, a landing buffer sized
// for them — as one pooled object. The service's gather engine
// (AsyncGatherer, Service.Gatherer) fills it: inline (GatherSync), or through
// per-node queues — drained by persistent, cond-woken goroutines — while the
// consumer computes (Submit), after which Await blocks only on what the
// overlap failed to hide — the measured exposed-gather time the mn-overlap
// and mn-depth scenarios and the Hotline timing model consume. Release
// returns the window to the engine's pool, which grows to the pipeline's
// peak window count, so the steady-state path allocates nothing.
//
// A depth-k pipeline keeps up to k windows open per table, each held by the
// consumer that prefetched it. The engine tracks what may go stale: Submit
// adds a window to its open set and Release takes it out, a sparse update
// marks the staged rows it is about to rewrite dirty (Service.MarkDirty,
// joining in-flight fetches first, so no fetch races a write), and the
// consuming forward delta-repairs exactly those rows from their owners
// (Staging.Consume) — every depth is therefore bit-identical to
// batch-by-batch stepping. The opt-in stale
// mode (Service.SetStaleReads) skips the repair, serves issue-time values
// and counts them, so the accuracy cost of staleness is measured rather
// than assumed.
//
//hotline:deterministic
package shard
