package pipeline

import (
	"fmt"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// ShardMeasurement carries *measured* sharding statistics for a workload:
// the timing models use these fractions instead of the analytic
// cold-lookup × dedup products when a workload was built sharded. All
// fractions are relative to total embedding lookups and are scale-free, so
// measurements taken on the downscaled functional tables apply to the
// paper-scale lookup counts the pipelines price.
type ShardMeasurement struct {
	Nodes             int
	CacheBytesPerNode int64
	// Placement names the row-ownership policy the measurement ran under
	// (round-robin, capacity-weighted, hot-aware).
	Placement string
	// HitRate is the device-cache hit rate over remote lookups.
	HitRate float64
	// LocalFrac is the fraction of lookups served by the requesting node's
	// own shard (what hot-aware placement raises).
	LocalFrac float64
	// RemoteFrac is the fraction of lookups that land on a remote shard
	// before any caching (the GPU-only all-to-all exchange fraction).
	RemoteFrac float64
	// GatherFrac is the fraction of lookups that cross the fabric after
	// caching and intra-iteration dedup (Hotline's cold-gather fraction).
	GatherFrac float64
	// ScatterFrac is the gradient push-back fraction after per-node
	// pre-reduction.
	ScatterFrac float64
	// A2ABytesPerIter is the measured gather+scatter volume per iteration
	// at the measurement batch size, on the scaled tables (scenario
	// reporting; the pipelines rescale via the fractions above).
	A2ABytesPerIter int64
	// CacheOccupancy is the mean device-cache fill after warm-up.
	CacheOccupancy float64
	// Quant names the device caches' precision tiering the measurement ran
	// under ("fp32" when quantization is off). Part of the memo identity: a
	// quantized cache's hit rate must never answer a full-precision probe.
	Quant string
	// QuantHitFrac is the fraction of device-cache hits served from the
	// narrow warm tier through the fused dequantize-gather kernel.
	QuantHitFrac float64
	// CacheRows is the steady-state device-cache entry count summed over
	// nodes — at a fixed byte budget the narrow warm tiers hold 2-4x more
	// rows than fp32, which is what moves HitRate and the all-to-all bytes.
	CacheRows int
	// OverlapMeasured reports that a functional overlap run (the
	// mn-overlap / mn-depth scenarios) measured ExposedFrac; the zero
	// value means unmeasured, so the timing models keep their analytic
	// overlap schedule unless a measurement was made explicitly.
	OverlapMeasured bool
	// ExposedFrac is the measured fraction of the fabric gather that stays
	// on the critical path under the async overlap engine (0 = fully
	// hidden, 1 = fully exposed). Only meaningful when OverlapMeasured is
	// set; the Hotline timing model then prices the exposed share instead
	// of its analytic overlap schedule.
	ExposedFrac float64
}

// SetExposedFrac records a measured exposed-gather fraction (clamped to
// [0, 1]) and marks the measurement present.
func (m *ShardMeasurement) SetExposedFrac(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	m.ExposedFrac, m.OverlapMeasured = f, true
}

// ShardProbe configures one MeasureShard measurement.
type ShardProbe struct {
	// Nodes is the simulated node count.
	Nodes int
	// CacheBytes is the per-node device-cache budget (0 = pure remote).
	CacheBytes int64
	// Batch is the replayed mini-batch size.
	Batch int
	// Placement selects the row-ownership policy.
	Placement shard.PlacementKind
	// HBMBytes are the real per-node HBM byte budgets PlaceCapacity
	// derives its ownership weights from (a heterogeneous cluster where
	// some nodes hold more device memory than others). Empty means a
	// homogeneous cluster: every node gets the probe's CacheBytes budget.
	HBMBytes []int64
	// Quant selects the device caches' precision tiering (shard.QuantOff
	// reproduces the fp32-only cache bit for bit). Capacity-weighted
	// placement reprices its ownership weights off the effective row
	// footprint: a node's HBM budget holds CacheBytes / WarmWidth.RowBytes
	// rows, so narrowing the warm tier raises the rows-per-node weights
	// the placement spreads ownership by.
	Quant shard.QuantMode
}

// shardStats memoises measurements per full probe identity.
var shardStats memo[ShardMeasurement]

// measureIters is how many post-warm-up iterations a measurement averages.
const measureIters = 4

// measureWarmup is how many iterations run before counters reset.
const measureWarmup = 2

// MeasureShard replays a real access stream against a sharded service under
// the probe's ownership placement (round-robin, capacity-weighted from
// per-node HBM budgets, or hot-aware — popular rows pinned to their dominant
// requesting node, counted over the same stream the measurement replays):
// it profiles an epoch, builds the access-aware placement (the EAL-learned
// hot set), installs it in the per-node device caches (Service.Relearn),
// streams warm-up batches, then measures steady-state cache hit-rates and
// gather/scatter volumes over several iterations. Results are memoised per full probe identity and
// deterministic for any concurrency. The replayed batch is capped at
// maxShardBatch, so probes that differ only above the cap share one entry.
func MeasureShard(cfg data.Config, p ShardProbe) ShardMeasurement {
	p.Batch = min(p.Batch, maxShardBatch)
	key := fmt.Sprintf("%s/%d/%d/%d/%s/%v/%s",
		cfg.Name, p.Nodes, p.CacheBytes, p.Batch, p.Placement, p.HBMBytes, p.Quant)
	return shardStats.get(key, func() ShardMeasurement { return measureShard(cfg, p) })
}

// maxShardBatch caps the mini-batch MeasureShard replays: the fractions it
// measures are scale-free, so a larger batch would only cost time.
const maxShardBatch = 2048

func measureShard(cfg data.Config, p ShardProbe) ShardMeasurement {
	probe := cfg
	if probe.Samples > 4096 {
		probe.Samples = 4096
	}
	prof := data.ProfileEpoch(data.NewGenerator(probe), 512)
	placement := embedding.PlacementFromCounts(
		prof.Counts(), probe.NumTables, probe.EmbedDim, data.ScaledHotBudget(probe))

	part := buildOwnership(probe, p, placement)
	svc := shard.New(shard.Config{
		Nodes: p.Nodes, CacheBytes: p.CacheBytes, RowBytes: int64(probe.EmbedDim) * 4,
		Part: part, Quant: p.Quant,
	}, nil)
	// Declare the tables (an accounting replay: no window is ever filled,
	// so there is no row view), then install and replicate the learned hot
	// set (bounded caches keep its most popular rows).
	for t := 0; t < probe.NumTables; t++ {
		svc.RegisterTable(t, probe.ScaledRowsPerTable[t], nil)
	}
	svc.Relearn(placement)

	gen := data.NewGenerator(probe)
	iteration := func() {
		b := gen.NextBatch(p.Batch)
		for t := range b.Sparse {
			svc.RecordGather(t, b.Sparse[t])
			svc.RecordScatter(t, b.Sparse[t])
		}
	}
	for i := 0; i < measureWarmup; i++ { // warm-up: cache state reaches steady flow
		iteration()
	}
	svc.ResetStats()
	for i := 0; i < measureIters; i++ {
		iteration()
	}
	st := svc.Snapshot()

	m := ShardMeasurement{
		Nodes:             p.Nodes,
		CacheBytesPerNode: p.CacheBytes,
		Placement:         p.Placement.String(),
		HitRate:           st.HitRate(),
		LocalFrac:         st.LocalFrac(),
		RemoteFrac:        st.RemoteFrac(),
		GatherFrac:        st.GatherFrac(),
		ScatterFrac:       st.ScatterFrac(),
		A2ABytesPerIter:   st.A2ABytes() / measureIters,
		CacheOccupancy:    svc.CacheOccupancy(),
		Quant:             p.Quant.String(),
		CacheRows:         svc.CacheEntries(),
	}
	if st.CacheHits > 0 {
		m.QuantHitFrac = float64(st.QuantHits) / float64(st.CacheHits)
	}
	return m
}

// buildOwnership realises a probe's placement policy. The hot-aware
// placement counts per-node requests over exactly the batches the
// measurement will replay (a fresh generator yields the identical stream),
// then pins each popular row to its dominant requester.
func buildOwnership(probe data.Config, p ShardProbe, hot shard.HotClassifier) *shard.Ownership {
	switch p.Placement {
	case shard.PlaceCapacity:
		// Ownership weights derive from the real per-node HBM byte
		// budgets: heterogeneous budgets from the probe, else every node's
		// device budget from the probe's CacheBytes (a pure-remote probe
		// degenerates to the uniform one-row-per-node weighting). Under a
		// quantized warm tier the same bytes hold more rows, so the weights
		// are priced at the effective (warm-width) row footprint.
		rowBytes := p.Quant.WarmWidth().RowBytes(probe.EmbedDim)
		hbm := p.HBMBytes
		if len(hbm) == 0 {
			hbm = make([]int64, p.Nodes)
			for i := range hbm {
				hbm[i] = max(p.CacheBytes, rowBytes)
			}
		}
		return shard.NewCapacityWeightedHBM(hbm, rowBytes)
	case shard.PlaceHotAware:
		rc := shard.NewRequestCounter(p.Nodes)
		gen := data.NewGenerator(probe)
		for i := 0; i < measureWarmup+measureIters; i++ {
			b := gen.NextBatch(p.Batch)
			for t := range b.Sparse {
				rc.Observe(t, b.Sparse[t])
			}
		}
		return rc.HotAware(hot)
	default:
		return shard.NewRoundRobin(p.Nodes)
	}
}

// DefaultShardCacheBytes is the per-node device-cache budget used when none
// is given: the dataset's scaled hot-set budget, i.e. each node can hold
// one full replica of the learned hot set (the paper's ≤512 MB HBM tier).
func DefaultShardCacheBytes(cfg data.Config) int64 { return data.ScaledHotBudget(cfg) }

// overlapFracs memoises MeasureOverlap per (dataset, nodes, depth).
var overlapFracs memo[float64]

// MeasureOverlap trains the Hotline executor functionally on the probe
// shape of cfg over a sharded service with the scaled hot-set cache budget
// per node — once at depth 1 (synchronous staged gathers), once with the
// depth-k prefetch pipeline (classification and fabric gathers for the next
// k-1 mini-batches issued while iteration i finishes, dirty rows
// delta-repaired) — and returns the measured fraction of gather wall time
// the pipeline left exposed, in [0, 1]. depth < 1 selects
// train.DefaultDepth. The depth is part of the memo identity: a deeper
// pipeline has more compute to hide the gathers under. The mn-overlap and
// mn-depth scenarios measure the production-shape model and override the
// workload's fraction with it.
func MeasureOverlap(cfg data.Config, nodes, depth int) float64 {
	if nodes <= 1 {
		return 0
	}
	if depth < 1 {
		depth = train.DefaultDepth
	}
	if depth == 1 {
		// The depth-1 pipeline IS the synchronous baseline — its exposure
		// is 1 by construction, and timing the ratio of two identical runs
		// would only measure scheduler noise.
		return 1
	}
	key := fmt.Sprintf("%s/%d/%d", cfg.Name, nodes, depth)
	return overlapFracs.get(key, func() float64 {
		// In-proc runs record no fabric error.
		run := Probe{
			Shard: shard.Config{Nodes: nodes, CacheBytes: DefaultShardCacheBytes(cfg)},
			Depth: 1, Iters: 8, Batch: 256,
		}
		fn := ProbeShape(cfg)
		syncRun, _ := run.Train(fn)
		run.Depth = depth
		overRun, _ := run.Train(fn)
		return shard.ExposedFrac(overRun.Stats, syncRun.Stats)
	})
}

// NewShardedWorkload assembles a workload whose timing models consume
// measured sharding statistics (sys.Nodes simulated nodes, the scaled
// hot-set budget of device cache per node, caches holding the learned hot
// set over round-robin ownership) instead of the analytic popularity
// fractions. The exposed-gather fraction is measured too (MeasureOverlap at
// train.DefaultDepth), so every mn-* scenario prices overlap from
// measurement instead of the analytic overlap schedule.
func NewShardedWorkload(cfg data.Config, batch int, sys cost.System) Workload {
	w := NewWorkload(cfg, batch, sys)
	m := MeasureShard(cfg, ShardProbe{Nodes: sys.Nodes, CacheBytes: DefaultShardCacheBytes(cfg), Batch: batch})
	if sys.Nodes > 1 {
		m.SetExposedFrac(MeasureOverlap(cfg, sys.Nodes, train.DefaultDepth))
	}
	w.Shard = &m
	return w
}
