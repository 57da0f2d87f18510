package experiments

import (
	"fmt"
	"time"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// The overlap/placement scenarios extend the mn-* family with the two
// remaining Hotline claims the sharded substrate can measure functionally:
// that hot-row-aware ownership shrinks the all-to-all volume blind
// round-robin pays (FAE/HugeCTR's hybrid-placement argument), and that the
// non-popular gather can stream while the popular µ-batch computes, leaving
// only a sliver of the fabric traffic exposed (the paper's pipeline,
// Figure 12, executed by the async gather engine instead of assumed by the
// timing model).

func init() {
	registry["mn-place"] = regEntry{"Multi-node sharded embeddings: ownership placement policies", MNPlacement}
	registry["mn-overlap"] = regEntry{"Multi-node sharded embeddings: async gather overlap (measured)", MNOverlap}
}

// MNPlacement sweeps the row-ownership policy at 4 nodes under cache
// pressure on the Criteo Kaggle skew: blind round-robin, capacity-weighted
// (a heterogeneous cluster whose per-node HBM byte budgets are 4x/2x/2x/1x
// the device-cache budget — ownership weights derive from those real byte
// budgets, not hand-picked demo weights) and hot-row-aware (popular rows
// pinned to their dominant requesting node). Hot-aware ownership turns the
// heaviest remote request streams into local ones, so gather and
// gradient-scatter messages — and with them the measured all-to-all bytes —
// drop relative to round-robin.
func MNPlacement() *report.Table {
	t := &report.Table{Header: []string{
		"placement", "local", "cache hit", "gather", "scatter KB/iter", "a2a KB/iter"}}
	cfg := data.CriteoKaggle()
	cache := pipeline.DefaultShardCacheBytes(cfg) / 8
	probes := []pipeline.ShardProbe{
		{Nodes: 4, CacheBytes: cache, Batch: mnBatch, Placement: shard.PlaceRoundRobin},
		{Nodes: 4, CacheBytes: cache, Batch: mnBatch, Placement: shard.PlaceCapacity,
			HBMBytes: []int64{4 * cache, 2 * cache, 2 * cache, cache}},
		{Nodes: 4, CacheBytes: cache, Batch: mnBatch, Placement: shard.PlaceHotAware},
	}
	for _, p := range probes {
		m := pipeline.MeasureShard(cfg, p)
		// Gather and scatter rows share one row footprint, so the fractions
		// split the measured a2a volume exactly.
		scatterKB := float64(m.A2ABytesPerIter) * m.ScatterFrac / (m.GatherFrac + m.ScatterFrac) / 1024
		t.AddRow(m.Placement,
			pct(m.LocalFrac, 1), pct(m.HitRate, 1), pct(m.GatherFrac, 1),
			fmt.Sprintf("%.1f", scatterKB),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024))
	}
	t.Notes = "hot-aware ownership pins each popular row to its dominant requester: the " +
		"owner is always one of the row's touchers, so its gather and scatter messages " +
		"vanish — blind round-robin only gets that for free 1-in-4 times"
	return t
}

// MNOverlap trains the full Hotline executor on sharded tables twice per
// node count — once with synchronous gathers (depth 1), once with the
// cross-iteration prefetch pipeline at the default depth (mini-batch i+1
// classified and its non-popular fabric gathers issued while iteration i
// finishes, streaming through the dense update and the next popular pass) —
// and reports the measured wall-clock gather time each run left exposed.
// The measured exposed fraction then feeds the Hotline timing model in
// place of its analytic overlap schedule.
func MNOverlap() *report.Table {
	t := &report.Table{Header: []string{
		"nodes", "prefetched rows", "sync gather", "exposed gather", "hidden",
		"Hotline iter (measured overlap)", "(no overlap)"}}
	// The timing-model workload uses the pristine dataset config (its
	// measurement memos are shared across experiments and keyed by dataset
	// name); only the functional training runs on a down-sampled copy.
	cfg := data.CriteoKaggle()
	fn := cfg
	fn.Samples = 2048

	for _, nodes := range []int{2, 4} {
		// In-proc runs record no fabric error.
		sync, _ := depthProbe(fn, nodes, 1, false).Train(fn)
		over, _ := depthProbe(fn, nodes, train.DefaultDepth, false).Train(fn)

		// Total exposed gather per run: inline (synchronous) staged gathers
		// plus, for the overlap run, the time Forward blocked on prefetch
		// windows the compute did not fully hide. The run-level ratio is the
		// measured exposed-gather fraction the timing model consumes.
		exposedFrac := shard.ExposedFrac(over.Stats, sync.Stats)

		parity := ""
		if !model.DenseStateEqual(sync.Model, over.Model) || !model.SparseStateEqual(sync.Model, over.Model) {
			parity = " [STATE DIVERGED]"
		}

		sys := cost.PaperCluster(nodes)
		w := pipeline.NewShardedWorkload(cfg, 4096*nodes, sys)
		w.Shard.SetExposedFrac(exposedFrac)
		hl := pipeline.NewHotline()
		t.AddRow(fmt.Sprint(nodes),
			fmt.Sprint(over.Stats.PrefetchRows),
			roundMS(sync.Stats.ExposedGather()), roundMS(over.Stats.ExposedGather()),
			pct(1-exposedFrac, 1)+parity,
			hl.Iteration(w).Total.String(),
			pipeline.NewHotlineNoOverlap().Iteration(w).Total.String())
	}
	t.Notes = "wall-clock, functional layer: the cross-iteration pipeline classifies " +
		"mini-batch i+1 and streams its non-popular remote rows into staging while " +
		"iteration i finishes; training state is bit-identical to the synchronous run " +
		"(TestOverlapDeterminism / TestPipelinedOverlapDeterminism)"
	return t
}

// roundMS renders a wall duration at µs resolution for stable-width tables.
func roundMS(d time.Duration) string { return d.Round(time.Microsecond).String() }
