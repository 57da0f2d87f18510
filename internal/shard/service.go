package shard

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// HotClassifier decides which rows count as popular and may be replicated
// into device caches: the hot set as one bitmap per table, plus its rank
// order. embedding.Placement, the learned hot set, is the one implementation.
// A nil classifier counts every row as hot: it admits every remote row (pure
// demand-cache mode, the admission ablation baseline).
type HotClassifier interface {
	// HotBits returns table's hot-row bitmap: row r is hot exactly when r
	// lies inside it and bit r&63 of bits[r>>6] is set; a row past it is
	// cold. The walk takes the view once per call, under the service mutex,
	// and never writes it.
	HotBits(table int) []uint64
	// Ranked yields every hot (table, row), most popular first: the order
	// Relearn admits them in, so a cache too small for the whole set keeps
	// its head.
	Ranked() iter.Seq2[int, int32]
}

// Config sizes a sharded embedding service.
type Config struct {
	// Nodes is the number of simulated nodes the tables shard across.
	Nodes int
	// CacheBytes is each node's device-cache capacity for replicated rows.
	// Zero selects the explicit pure-remote mode: no device caches, every
	// remote lookup crosses the fabric, and no fill traffic is accounted.
	// Non-zero budgets must hold at least one row (see Validate).
	CacheBytes int64
	// RowBytes is one embedding row's footprint (EmbedDim * 4 for float32).
	RowBytes int64
	// Quant selects the device caches' precision tiering (default QuantOff:
	// every cached row is fp32 and training is bit-identical to the
	// untiered cache). See QuantMode.
	Quant QuantMode
	// Part decides row ownership. Nil selects the round-robin baseline
	// (row r of every table lives on node r mod Nodes); NewCapacityWeighted,
	// NewCapacityWeightedHBM and RequestCounter.HotAware build the others.
	Part *Ownership
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("shard: Nodes %d < 1", c.Nodes)
	}
	if c.RowBytes < 4 {
		return fmt.Errorf("shard: RowBytes %d < 4", c.RowBytes)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("shard: negative CacheBytes %d", c.CacheBytes)
	}
	if minRow := c.EntryBytes(c.Quant.WarmWidth()); c.CacheBytes > 0 && c.CacheBytes < minRow {
		return fmt.Errorf("shard: CacheBytes %d holds no full %s row of %d bytes; "+
			"use CacheBytes = 0 for an explicit pure-remote (uncached) service",
			c.CacheBytes, c.Quant.WarmWidth(), minRow)
	}
	if c.Part != nil && c.Part.Nodes() != c.Nodes {
		return fmt.Errorf("shard: %s placement spreads over %d nodes, config has %d",
			c.Part.Kind(), c.Part.Nodes(), c.Nodes)
	}
	return nil
}

// CacheRows returns the per-node cache capacity in fp32 rows.
func (c Config) CacheRows() int { return int(c.CacheBytes / c.RowBytes) }

// Dim returns the embedding dimension implied by the fp32 row footprint.
func (c Config) Dim() int { return int(c.RowBytes / 4) }

// EntryBytes returns one cached row's HBM footprint at the given storage
// width (the int8 format carries its per-row float32 scale).
func (c Config) EntryBytes(w Width) int64 { return w.RowBytes(c.Dim()) }

// PureRemote reports whether the service runs without device caches (every
// remote lookup crosses the fabric, no replication fill traffic).
func (c Config) PureRemote() bool { return c.CacheBytes == 0 }

// Stats is a snapshot of one of a Service's two counter blocks, training
// (Snapshot) or serve (ServeSnapshot). Every field but Nodes is a counter, a
// time.Duration exactly when it measures wall clock. All row counters are
// in embedding rows; byte counters already include the row footprint.
type Stats struct {
	Nodes int

	// Lookups counts every embedding access routed through the service.
	Lookups int64
	// Local counts lookups whose row is owned by the requesting node.
	Local int64
	// CacheHits / CacheMisses count remote lookups served by / missing the
	// requesting node's device cache.
	CacheHits, CacheMisses int64
	// QuantHits counts the CacheHits that landed on a warm-tier (sub-fp32)
	// entry and were served through the fused dequantize-gather kernel.
	QuantHits int64
	// DequantRows counts distinct staged rows the fused dequantize-gather
	// kernel materialized (one per quantized row per staging window, however
	// many batch positions hit it).
	DequantRows int64
	// GatherRows / GatherBytes count rows actually fetched across the
	// fabric (cache misses deduplicated within one gather call, i.e. one
	// fetch per distinct row per node per iteration).
	GatherRows, GatherBytes int64
	// ScatterRows / ScatterBytes count gradient rows pushed back to their
	// owner nodes (one per distinct touched remote row per node).
	ScatterRows, ScatterBytes int64
	// FillBytes counts replication traffic admitted into device caches.
	FillBytes int64
	// Evictions counts the rows Relearn removed from the device caches
	// across all nodes: an admission never displaces an entry.
	Evictions int64
	// StaleServeRows counts serve-path rows answered from the coordinator's
	// warmed mirror while their owner peer was unreachable (graceful serve
	// degradation). Only the serve-side snapshot ever writes it; on the
	// training counters it is always zero.
	StaleServeRows int64

	// GatherWall / ScatterWall are measured wall-clock totals the transport
	// spent moving this window's fabric traffic: staged gather fetches
	// (including dirty-row repairs) and pre-reduced scatter pushes. On the
	// in-proc fast path GatherWall is the staging memcpy time and
	// ScatterWall is zero (a shared address space moves no scatter bytes);
	// on a socket fabric both are real per-window wire times — the measured
	// counterpart of the modeled pipeline.AllToAllTime. The socket fabric
	// pipelines its pushes, so ScatterWall is the encode and write the trainer
	// waited for, and the owner's apply-and-ack is waited for by that owner's
	// next fetch, inside GatherWall.
	GatherWall, ScatterWall time.Duration

	// The gather engine's counts (Service.Gatherer): what it moved and how
	// much of it the overlap hid. All durations are wall-clock measurements
	// of the functional layer (they feed scenario reports and the measured
	// exposed-gather fraction, never any training math).

	// Windows counts submitted prefetch windows; SyncWindows counts
	// synchronous (non-prefetched) staged gathers.
	Windows, SyncWindows int64
	// PrefetchRows / PrefetchBytes total the fabric volume issued
	// asynchronously; SyncRows / SyncBytes the volume fetched inline.
	PrefetchRows, SyncRows   int64
	PrefetchBytes, SyncBytes int64
	// RepairRows / RepairBytes total the dirty-row delta repairs a depth-k
	// pipeline shipped: rows staged at issue time that a later sparse
	// update rewrote, re-fetched from their owner shard before the window
	// was consumed. Depth k <= 2 never repairs (no update intervenes);
	// deeper lookahead trades this extra traffic for more hiding time.
	RepairRows, RepairBytes int64
	// StaleRows counts distinct dirtied rows consumed WITHOUT repair under
	// the opt-in stale mode (Service.SetStaleReads) — the rows whose
	// staleness the mn-depth scenario prices in accuracy.
	StaleRows int64
	// GatherBusy is the summed time workers spent copying rows (both modes).
	GatherBusy time.Duration
	// Exposed is the summed wall time consumers were blocked in Await —
	// gather time the overlap did not hide.
	Exposed time.Duration
	// SyncGather is the summed wall time of inline staged gathers, i.e. the
	// fully exposed cost the synchronous path pays for the same traffic.
	SyncGather time.Duration

	// The recovery subsystem's counts. Fetch re-routes and row migration
	// happen on the coordinator; redials and per-peer health live in
	// PeerHealth.

	// Adoptions counts survivor failovers (dead peers whose shard the
	// remaining nodes adopted).
	Adoptions int64
	// MigratedRows / MigratedBytes count rows pushed to their new owners
	// during failover (repair/migration traffic, separate from scatter).
	MigratedRows, MigratedBytes int64
	// ResyncRows / ResyncBytes count rows re-pushed to a revived (re-dialed)
	// peer restoring its shard from the mirror.
	ResyncRows, ResyncBytes int64
	// Refetches counts rows whose failed gather fetch was re-routed to a
	// surviving owner and completed.
	Refetches int64
	// RecoveryWall is the wall clock spent inside failover and re-routing
	// (recovery latency; excludes the transport layer's own redial backoff).
	RecoveryWall time.Duration
}

// counts returns the address of every counter of s — every field but Nodes —
// in one fixed order: the one list Sub and the service's fold of a call's
// counts (Service.count) walk.
//
//hotline:stats-writer
func (s *Stats) counts() [34]*int64 {
	return [...]*int64{
		&s.Lookups, &s.Local, &s.CacheHits, &s.CacheMisses, &s.QuantHits,
		&s.DequantRows, &s.GatherRows, &s.GatherBytes, &s.ScatterRows,
		&s.ScatterBytes, &s.FillBytes, &s.Evictions, &s.StaleServeRows,
		(*int64)(&s.GatherWall), (*int64)(&s.ScatterWall),
		&s.Windows, &s.SyncWindows, &s.PrefetchRows, &s.SyncRows,
		&s.PrefetchBytes, &s.SyncBytes, &s.RepairRows, &s.RepairBytes,
		&s.StaleRows, (*int64)(&s.GatherBusy), (*int64)(&s.Exposed),
		(*int64)(&s.SyncGather),
		&s.Adoptions, &s.MigratedRows, &s.MigratedBytes, &s.ResyncRows,
		&s.ResyncBytes, &s.Refetches, (*int64)(&s.RecoveryWall),
	}
}

// HitRate returns device-cache hits over all remote lookups.
func (s Stats) HitRate() float64 {
	r := s.CacheHits + s.CacheMisses
	if r == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(r)
}

// LocalFrac returns the fraction of lookups served by the requesting
// node's own shard — what a placement policy maximises by co-locating rows
// with their requesters.
func (s Stats) LocalFrac() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Local) / float64(s.Lookups)
}

// RemoteFrac returns the fraction of lookups that land on a remote shard
// (before the device cache intervenes).
func (s Stats) RemoteFrac() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.CacheHits+s.CacheMisses) / float64(s.Lookups)
}

// GatherFrac returns the fraction of lookups that cross the fabric after
// caching and intra-iteration dedup — the measured analogue of the analytic
// cold-lookup × dedup product the timing models otherwise assume.
func (s Stats) GatherFrac() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.GatherRows) / float64(s.Lookups)
}

// ScatterFrac returns gradient push-back rows as a fraction of lookups.
func (s Stats) ScatterFrac() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.ScatterRows) / float64(s.Lookups)
}

// A2ABytes returns the total all-to-all volume: gathers plus scatters.
func (s Stats) A2ABytes() int64 { return s.GatherBytes + s.ScatterBytes }

// ExposedGather returns the total gather wall time this engine left on the
// consumer's critical path: inline (synchronous) staged gathers plus the
// time consumers were blocked in Await. Comparing it between an
// overlap-off and an overlap-on run of the same workload yields the
// exposed-gather fraction the mn-overlap/mn-depth scenarios feed the
// timing models.
func (s Stats) ExposedGather() time.Duration { return s.SyncGather + s.Exposed }

// ExposedFrac returns this engine's exposed share of the given synchronous
// gather baseline, clamped to [0, 1] (0 = fully hidden).
func ExposedFrac(overlap, sync Stats) float64 {
	base := sync.ExposedGather()
	if base <= 0 {
		return 0
	}
	f := float64(overlap.ExposedGather()) / float64(base)
	if f > 1 {
		f = 1
	}
	return f
}

// Sub returns s minus prev, counter-wise (for per-window deltas).
func (s Stats) Sub(prev Stats) Stats {
	to, from := s.counts(), prev.counts()
	for i, c := range to {
		*c -= *from[i]
	}
	return s
}

// WithoutWall returns the snapshot with its wall-clock meters — exactly its
// time.Duration fields — cleared: the pure traffic counters, which must be
// exactly equal across transports for the same workload (the conformance
// suite's counter invariant), while the wall times are measurements and
// legitimately differ.
func (s Stats) WithoutWall() Stats {
	s.GatherWall, s.ScatterWall, s.RecoveryWall = 0, 0, 0
	s.GatherBusy, s.Exposed, s.SyncGather = 0, 0, 0
	return s
}

// Service is the sharded embedding substrate: N nodes, each owning a
// round-robin slice of every table's rows plus a bounded device cache of
// replicated popular rows. Embedding bags route accesses through
// RecordGather/RecordScatter; the Service simulates cache state and
// accumulates the traffic counters the timing models and scenario
// experiments consume.
//
// A Service is safe for concurrent use (the Hotline executor runs popular
// and non-popular µ-batches concurrently): counter totals are exact; under
// concurrent recording only the cache interleaving — never any training
// math — depends on scheduling.
type Service struct {
	cfg Config
	// hot is the learned hot set; Relearn swaps it under mu.
	hot HotClassifier
	// part is the configured placement; only placeOwners asks it.
	part *Ownership

	// gather is the service's gather engine: it pools the windows the
	// accounting walk plans and fetches them, inline or on its drainers.
	gather *AsyncGatherer

	// tr is the fabric transport rows travel over (SetTransport; defaults
	// to the in-proc fast path). Read-only after SetTransport, which must
	// run before tables register and training starts.
	tr        Transport
	multiproc bool

	// statsMu guards the two counter blocks; each call counts into a local
	// Stats and folds it in once (count).
	statsMu sync.Mutex
	stats   Stats // training: the walks, the walls, the engine, recovery
	// serveStats accounts the read-only inference path separately from the
	// training counters: serve gathers move real fabric bytes but never
	// scatter gradients and never write the device caches, so folding them
	// into the training snapshot would skew every training-side fraction.
	serveStats Stats

	// errMu guards the aggregated fabric error (noteFabricErr).
	errMu      sync.Mutex
	fabricErr  error
	fabricErrN int

	// fail is the adoption record, non-nil exactly when
	// SetRecovery(RecoverAdopt) armed shard adoption (which must precede
	// table registration and training); failoverDead replaces it, under mu,
	// with the owner arrays it implies. recoverMu single-flights failover.
	fail      atomic.Pointer[failoverState]
	recoverMu sync.Mutex

	// pushMu serialises PushUpdates' per-owner grouping scratch.
	pushMu     sync.Mutex
	pushGroups [][]int32

	closeOnce sync.Once
	closeErr  error

	// stale selects the opt-in stale-read mode of the depth-k pipeline:
	// windows consume their staged rows as fetched at issue time, skipping
	// the dirty-row repair (Staging.Consume) and merely counting the
	// stale rows. Training then diverges from batch-by-batch stepping — the
	// accuracy cost the mn-depth scenario measures.
	stale atomic.Bool

	mu     sync.Mutex
	caches []*DeviceCache
	// tables[t] is table t's record: RegisterTable writes it, an adoption
	// replaces its owner array, and a walk over a table without one panics
	// (tableOwners).
	tables []tableState
	// stamps is the per-call (requesting node, row) dedup set of the gather
	// and scatter walks: cell row*Nodes+node holds the epoch of the call that
	// last saw the pair, so one epoch bump empties the set. One array serves
	// every table (a call walks one table under the mutex); it spans the
	// largest registered table. A byte per cell keeps the set a quarter the
	// size of a uint32 one — it is probed once per remote lookup, so its
	// cache footprint is the cost — for one scrub of the array every 255
	// calls (nextEpoch).
	stamps []uint8
	epoch  uint8
}

// tableState is one registered table's record in the service.
type tableState struct {
	// owners[r] is the node that owns row r, one entry per row of the table:
	// the placement walked once into an array (placeOwners), every row an
	// adoption moved already on its survivor. It is the service's only
	// routing state, non-nil exactly when the table is registered, and a
	// published array is never written: an adoption installs fresh arrays
	// (failoverDead).
	owners []int32
	// src is the row view RegisterTable declared: the one source every window
	// copies rows from and every push, migration and resync sends.
	src RowAt
}

// New builds a Service. hot may be nil (admit every remote row).
func New(cfg Config, hot HotClassifier) *Service {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	part := cfg.Part
	if part == nil {
		part = NewRoundRobin(cfg.Nodes)
	}
	s := &Service{cfg: cfg, hot: hot, part: part, caches: make([]*DeviceCache, cfg.Nodes), tr: NewInproc()}
	for n := range s.caches {
		s.caches[n] = &DeviceCache{capBytes: cfg.CacheBytes}
	}
	s.gather = newAsyncGatherer(s)
	return s
}

// Quantized reports whether the device caches run precision-tiered.
func (s *Service) Quantized() bool { return s.cfg.Quant != QuantOff }

// Nodes returns the node count.
func (s *Service) Nodes() int { return s.cfg.Nodes }

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// Owner returns the node that owns a row of a table: the row's entry in the
// table's owner array.
func (s *Service) Owner(table int, row int32) int {
	return int(s.owners(table)[row])
}

// owners returns table's owner array. The array is never written once
// published, so the caller reads it without s.mu: a fetch routed by an array
// that an adoption has since replaced fails at the dead owner and re-routes
// by the new arrays (reroute).
func (s *Service) owners(table int) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tableOwners(table)
}

// Gatherer returns the service's gather engine (never nil): it executes the
// windows PlanGather hands out — overlapped with compute (Submit) or inline
// (GatherSync) — and its Stats measure how much of the gather time stayed
// exposed.
func (s *Service) Gatherer() *AsyncGatherer { return s.gather }

// SetStaleReads toggles the opt-in stale-read mode: when on, depth-k
// prefetch windows skip the dirty-row repair and serve staged rows exactly
// as fetched at issue time (counted in Stats.StaleRows). Off — the
// default — every window is delta-repaired before use, keeping any
// pipeline depth bit-identical to batch-by-batch stepping.
func (s *Service) SetStaleReads(on bool) { s.stale.Store(on) }

// StaleReads reports whether the stale-read mode is on.
func (s *Service) StaleReads() bool { return s.stale.Load() }

// NodeOf returns the node a batch position is dealt to (round-robin data
// parallelism; µ-batches inherit the mapping by position).
func (s *Service) NodeOf(sample int) int { return sample % s.cfg.Nodes }

// key packs (table, row) into a cache key.
//
//hotline:hotpath
func key(table int, row int32) uint64 {
	return uint64(table)<<32 | uint64(uint32(row))
}

// RecordGather routes one bag lookup's index set (indices[b] lists the rows
// batch position b accesses) through the shard topology: local rows are
// free, remote rows probe the requesting node's device cache, and misses
// are gathered once per distinct (node, row) with popular rows admitted
// into the cache. Deterministic: indices are walked in order.
func (s *Service) RecordGather(table int, indices [][]int32) {
	s.planGather(table, indices, false, false)
}

// RecordServeGather is RecordGather for the read-only inference path: the
// same shard routing, device-cache probing and gather dedup, but a read of
// the caches — a miss admits nothing, so no fill moves. The caches hold what
// the training schedule put there and the trainer's counts do not depend on
// how requests interleave with its steps. The counters land in the serve
// snapshot (ServeSnapshot), and there is never a matching scatter.
func (s *Service) RecordServeGather(table int, indices [][]int32) {
	s.planGather(table, indices, false, true)
}

// PlanGather performs RecordGather's full accounting pass and additionally
// returns the window to stage: the distinct rows that must reach the
// requesting side's staging buffer, those that cross the fabric grouped by
// owner node, and the buffer sized for them. It returns nil when nothing
// needs staging (every access was local or an exact cache hit). The gather
// engine fills the window (Submit / GatherSync); cache state and counters
// advance exactly as a plain RecordGather would. Release the window once its
// rows are consumed.
func (s *Service) PlanGather(table int, indices [][]int32) *Staging {
	return s.planGather(table, indices, true, false)
}

// PlanServeGather is PlanGather for the read-only inference path: the same
// accounting as RecordServeGather (serve counters, caches only read) plus
// the window ServeGatherSync fills to actually move the remote rows.
func (s *Service) PlanServeGather(table int, indices [][]int32) *Staging {
	return s.planGather(table, indices, true, true)
}

// planGather is the shared accounting walk behind RecordGather /
// RecordServeGather / PlanGather. serve selects the serve-side counter set
// and makes the walk a read of the caches: a miss is counted, deduplicated
// and staged as training's would be, but never admitted. Only training
// traffic and Relearn write the caches.
//
// The common case is one straight loop: a local row, and a remote row its
// node's cache holds, cost a routing load and an index load, with the call's
// counts kept in locals. The loop branches only on a miss: whether a row is
// local, a quarter of the rows on four nodes and in no order a predictor
// learns, is counted, not branched on. A miss and a warm-tier hit — plans,
// stamps, admission — run out of line (gatherWalk), and the plan stays nil
// until a row needs staging.
//
// The serving width is a pure policy function of the row (QuantMode.admit),
// never of cache residency: a narrow-tier row is served through the fused
// quantize→dequantize round trip from its very first touch — the fill that
// admits it quantizes it, and the forward reads the dequantized replica —
// not just on later hits. Residency-independent values are what keep every
// pipeline depth bit-identical to batch-by-batch stepping in quantized mode:
// plan order may legally differ between the synchronous and lookahead
// executors, so a value that depended on WHEN a row was admitted would
// diverge; for the same reason a serve miss, which is never admitted, is
// staged at exactly the width a training miss would admit the row at.
// Untiered caches serve every hit exact, so only a miss asks the classifier.
func (s *Service) planGather(table int, indices [][]int32, collect, serve bool) *Staging {
	g := gatherWalk{s: s, table: table, collect: collect, serve: serve}
	// The call's counts fold in once, after s.mu is released: deferred calls
	// run last first.
	var st Stats
	defer s.count(serve, &st)
	for _, bag := range indices {
		g.lookups += len(bag) // also bounds the distinct rows a plan stages
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	own := s.tableOwners(table)
	g.stamps, g.epoch = s.stamps, s.nextEpoch()
	if s.hot != nil {
		g.bits = s.hot.HotBits(table)
	}
	tiered := s.cfg.Quant != QuantOff && s.cfg.CacheBytes > 0
	var hits int64
	nodes := s.cfg.Nodes
	node := 0 // NodeOf(b), stepped instead of divided
	for _, bag := range indices {
		cache := s.caches[node]
		cix := cache.tableIndex(table)
		for _, ix := range bag {
			owner := int(own[ix])
			var slot int32
			if uint(ix) < uint(len(cix)) {
				slot = cix[ix]
			}
			remote := b2i(owner != node)
			if remote&b2i(slot == 0) != 0 {
				g.miss(cache, node, owner, ix)
				continue
			}
			hits += int64(remote)
			if tiered && remote != 0 {
				// A hit is served at the width the mode stores the row at:
				// the width a miss would admit it at.
				if w, ok := s.cfg.Quant.admit(g.hot(ix)); ok && w != WidthFP32 {
					g.warmHit(ix, w)
				}
			}
		}
		if node++; node == nodes {
			node = 0
		}
	}
	// Every lookup a remote row's probe did not count is a local one.
	st.Lookups, st.CacheHits, st.CacheMisses = int64(g.lookups), hits, g.misses
	st.Local = st.Lookups - hits - g.misses
	st.QuantHits, st.DequantRows, st.GatherRows = g.quantHits, g.dequantRows, g.gatherRows
	st.GatherBytes, st.FillBytes = g.gatherBytes, g.fillBytes
	if g.plan != nil {
		g.plan.sizeBuffer(s.cfg.Dim())
		g.plan.src = s.tables[table].src
	}
	return g.plan
}

// b2i is 1 for true and 0 for false.
//
//hotline:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gatherWalk is one planGather call's state beyond its straight loop: what a
// miss and a warm-tier hit read, the plan they build and the counts they add.
type gatherWalk struct {
	s       *Service
	table   int
	lookups int
	collect bool
	// serve is set on the read-only inference walk: a miss is never admitted.
	serve  bool
	stamps []uint8
	epoch  uint8
	// bits is the classifier's hot bitmap of the table, nil without one.
	bits []uint64
	plan *Staging
	// The counts the out-of-line paths add, each a Stats counter.
	misses, quantHits, dequantRows, gatherRows, gatherBytes, fillBytes int64
}

// hot reports whether row ix of the walked table is popular: its bit in the
// classifier's hot bitmap (a row past the bitmap is cold), and true for every
// row without a classifier.
//
//hotline:hotpath
func (g *gatherWalk) hot(ix int32) bool {
	return g.s.hot == nil || hotBit(g.bits, ix)
}

// hotBit reads row ix's bit of a hot bitmap; a row past it is cold.
//
//hotline:hotpath
func hotBit(bits []uint64, ix int32) bool {
	w := uint(ix) >> 6
	return w < uint(len(bits)) && bits[w]&(1<<(uint(ix)&63)) != 0
}

// planned returns the call's plan, acquiring it at the first row that needs
// staging.
//
//hotline:hotpath
func (g *gatherWalk) planned() *Staging {
	if g.plan == nil {
		g.plan = g.s.gather.acquire(g.table, g.lookups)
	}
	return g.plan
}

// warmHit counts a hit on a warm-tier (sub-fp32) entry, which the fused
// dequantize-gather kernel serves at width w at staging time.
//
//hotline:hotpath
func (g *gatherWalk) warmHit(ix int32, w Width) {
	g.quantHits++
	if g.collect {
		if g.planned().addQuant(ix, w) {
			g.dequantRows++
		}
	}
}

// miss accounts a remote lookup the requesting node's cache does not hold: a
// fabric fetch once per distinct (requesting node, row) in the call, staged
// in the plan, and — on a training walk — the admission of the row into the
// cache at the width the tiering mode assigns it.
//
//hotline:hotpath
func (g *gatherWalk) miss(cache *DeviceCache, node, owner int, ix int32) {
	s := g.s
	g.misses++
	var w Width
	var admit bool
	if s.cfg.CacheBytes > 0 {
		w, admit = s.cfg.Quant.admit(g.hot(ix))
	}
	// The dedup key is (requesting node, row); the table is fixed within one
	// call.
	if cell := &g.stamps[int(ix)*s.cfg.Nodes+node]; *cell != g.epoch {
		*cell = g.epoch
		g.gatherRows++
		g.gatherBytes += s.cfg.RowBytes
		if g.collect {
			if admit && w != WidthFP32 {
				// The miss still prices a full fabric row above (the fill
				// transfer), but the staged value is the fused round trip of
				// the row being admitted — exactly what reading the
				// just-filled warm entry would serve.
				if g.planned().addQuant(ix, w) {
					g.dequantRows++
				}
			} else {
				g.planned().add(ix, owner, s.cfg.RowBytes)
			}
		}
	}
	// Admission replicates rows into the probing cache's free bytes at the
	// width the tiering mode assigns them; the explicit pure-remote mode (zero
	// capacity) admits nothing and must account no fill traffic. Fill bytes
	// move only on actual admission, at the admitted entry's footprint — the
	// row missed, so every admission here is of a new key, or is refused for
	// want of free bytes, moving nothing. A serve walk admits nothing.
	if admit && !g.serve {
		if eb := s.cfg.EntryBytes(w); cache.admit(key(g.table, ix), w, eb) {
			g.fillBytes += eb
		}
	}
}

// nextEpoch empties the (requesting node, row) dedup set for a new call by
// moving to a stamp value no cell holds. Caller holds s.mu.
//
//hotline:hotpath
func (s *Service) nextEpoch() uint8 {
	s.epoch++
	if s.epoch == 0 {
		// The counter wrapped: scrub the cells so a stamp from 256 calls ago
		// can never alias the restarted counter, and skip zero — the value
		// of a cell no call has stamped.
		clear(s.stamps)
		s.epoch = 1
	}
	return s.epoch
}

// tableOwners returns table's owner array, and panics when the table was
// never registered: the walks ask once per call, and the array's length
// bounds every row they index. Caller holds s.mu.
//
//hotline:hotpath
func (s *Service) tableOwners(table int) []int32 {
	if table < len(s.tables) && s.tables[table].owners != nil {
		return s.tables[table].owners
	}
	panic(fmt.Sprintf("shard: table %d is not registered (RegisterTable)", table))
}

// registered yields every registered table's index and record, in table
// order, from a copy of the records taken under s.mu — the setup and
// recovery paths push each one's rows without holding the lock.
func (s *Service) registered() iter.Seq2[int, tableState] {
	s.mu.Lock()
	tables := slices.Clone(s.tables)
	s.mu.Unlock()
	return func(yield func(int, tableState) bool) {
		for table, t := range tables {
			if t.owners != nil && !yield(table, t) {
				return
			}
		}
	}
}

// anyRegistered reports whether a table has registered: the point after
// which the transport and the recovery policy are fixed.
func (s *Service) anyRegistered() bool {
	for range s.registered() {
		return true
	}
	return false
}

// RecordScatter accounts the gradient push-back for one bag's backward
// pass: every node locally pre-reduces its gradient contributions, then
// sends one row-sized message per distinct remote row it touched to that
// row's owner.
func (s *Service) RecordScatter(table int, indices [][]int32) {
	var st Stats
	defer s.count(false, &st) // after s.mu is released
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes, rowBytes := s.cfg.Nodes, s.cfg.RowBytes
	own, stamps, epoch := s.tableOwners(table), s.stamps, s.nextEpoch()
	var sent int64
	node := 0 // NodeOf(b), stepped instead of divided
	for _, bag := range indices {
		cells := stamps[node:]
		for _, ix := range bag {
			// No branch, as in planGather: a local row's cell is stamped
			// too, and no walk of this epoch reads it.
			cell := &cells[int(ix)*nodes]
			sent += int64(b2i(int(own[ix]) != node) & b2i(*cell != epoch))
			*cell = epoch
		}
		if node++; node == nodes {
			node = 0
		}
	}
	st.ScatterRows, st.ScatterBytes = sent, sent*rowBytes
}

// Relearn swaps the service to a new learned hot set at a step boundary —
// the learning phase's periodic re-sample — and is the only way a row leaves
// a device cache:
//   - it installs hot (nil counts every row hot: pure demand caching);
//   - it removes every cached row whose hot bit, and so whose width or
//     admission, the new set changes, counting each in Stats.Evictions;
//   - it admits every hot row a non-owner cache does not hold, at the hot
//     tier's width and in hot's rank order while the entry fits, counting its
//     bytes in Stats.FillBytes: a cache too small for the set keeps its head.
//
// Swapping to the installed set moves nothing. A window already planned keeps
// the widths it was staged at, so its values do not change.
func (s *Service) Relearn(hot HotClassifier) {
	var st Stats
	defer s.count(false, &st) // after s.mu is released
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hot = hot
	q := s.cfg.Quant
	for _, cache := range s.caches {
		for i := range cache.slots {
			e := cache.slots[i]
			if e.bytes == 0 { // a free slot
				continue
			}
			row := int32(uint32(e.key))
			if w, ok := q.admit(hot == nil || hotBit(hot.HotBits(int(e.key>>32)), row)); !ok || w != e.width {
				cache.removeSlot(int32(i))
				st.Evictions++
			}
		}
	}
	if hot == nil {
		return
	}
	w := q.hotWidth()
	eb := s.cfg.EntryBytes(w)
	for table, row := range hot.Ranked() {
		owner, k := int(s.tableOwners(table)[row]), key(table, row)
		for n, cache := range s.caches {
			if n != owner && !cache.Contains(k) && cache.admit(k, w, eb) {
				st.FillBytes += eb
			}
		}
	}
}

// count folds one call's counts into the training block, or the serve block
// when serve is set.
//
//hotline:stats-writer
func (s *Service) count(serve bool, d *Stats) {
	s.statsMu.Lock()
	dst := &s.stats
	if serve {
		dst = &s.serveStats
	}
	to, from := dst.counts(), d.counts()
	for i, c := range to {
		*c += *from[i]
	}
	s.statsMu.Unlock()
}

// Snapshot returns the training counters (with Nodes filled in): the
// accounting walks' traffic, the measured transport wall times, the gather
// engine's counts and recovery's.
func (s *Service) Snapshot() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Nodes = s.cfg.Nodes
	return st
}

// ServeSnapshot returns the read-only inference path's counters (with
// Nodes filled in): every Serve/Predict gather routed through
// RecordServeGather, separate from the training snapshot. Serve walks admit
// and remove nothing, so its FillBytes and Evictions stay zero.
func (s *Service) ServeSnapshot() Stats {
	s.statsMu.Lock()
	st := s.serveStats
	s.statsMu.Unlock()
	st.Nodes = s.cfg.Nodes
	return st
}

// ResetStats zeroes the training counters but keeps cache contents (steady
// state), so warm-up windows can be excluded from measurements.
func (s *Service) ResetStats() {
	s.statsMu.Lock()
	s.stats = Stats{}
	s.statsMu.Unlock()
}

// CacheOccupancy returns the mean device-cache occupancy across nodes.
func (s *Service) CacheOccupancy() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, c := range s.caches {
		sum += c.Occupancy()
	}
	return sum / float64(len(s.caches))
}

// CacheEntries sums the rows currently held across all device caches —
// with tiered admission the same byte budget holds more (narrower) rows,
// and this is the measured row count the mn-quant frontier reports.
func (s *Service) CacheEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, c := range s.caches {
		n += c.Len()
	}
	return n
}
