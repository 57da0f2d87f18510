package experiments

import (
	"fmt"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/pipeline"
	"hotline/internal/report"
)

// The SYN scenarios bring the synthetic multi-hot models (SYN-M1/M2, the
// paper's Fig 28/30 workloads) onto the measured sharded substrate, and
// sweep the mini-batch size on it — the two scenario-breadth gaps the
// roadmap named: until now the mn-* family only replayed the real-world
// one-hot datasets at one batch size.

func init() {
	registry["mn-syn"] = regEntry{"Multi-node sharded embeddings: SYN-M1/M2 multi-hot models (measured)", MNSynthetic}
	registry["mn-batch"] = regEntry{"Multi-node sharded embeddings: mini-batch size sweep (measured)", MNBatchSweep}
}

// MNSynthetic replays the SYN-M1 and SYN-M2 multi-hot access streams (4
// lookups per table, 102/204 tables) against a 4-node sharded service and
// prices the measured fractions with the timing models. Multi-hot bags
// touch far more rows per input than the one-hot real-world models, so the
// device caches and intra-iteration dedup carry proportionally more of the
// load — exactly the regime the paper's Fig 30 multi-node claim lives in.
func MNSynthetic() *report.Table {
	t := &report.Table{Header: []string{
		"model", "tables", "lookups/input", "cache hit", "remote", "gather",
		"a2a KB/iter", "exposed", "Hotline iter", "HugeCTR iter"}}
	const nodes = 4
	sys := cost.PaperCluster(nodes)
	for _, cfg := range []data.Config{data.SynM1(), data.SynM2()} {
		m := pipeline.MeasureShard(cfg, pipeline.ShardProbe{
			Nodes: nodes, CacheBytes: pipeline.DefaultShardCacheBytes(cfg), Batch: mnBatch})
		w := pipeline.NewShardedWorkload(cfg, 4096*nodes, sys)
		exposed := "-"
		if w.Shard.OverlapMeasured {
			exposed = pct(w.Shard.ExposedFrac, 1)
		}
		t.AddRow(cfg.RM,
			fmt.Sprint(cfg.NumTables),
			fmt.Sprint(cfg.NumTables*cfg.LookupsPerTable),
			pct(m.HitRate, 1), pct(m.RemoteFrac, 1), pct(m.GatherFrac, 1),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024),
			exposed,
			pipeline.NewHotline().Iteration(w).Total.String(),
			pipeline.NewHugeCTR().Iteration(w).Total.String())
	}
	t.Notes = "measured on the scaled multi-hot tables: 4 lookups per table multiply " +
		"the per-input embedding traffic, so cache hit-rate and dedup matter more than " +
		"for the one-hot real-world models; Hotline vs HugeCTR is the Fig 30 comparison " +
		"with measured (not analytic) shard fractions"
	return t
}

// MNBatchSweep sweeps the mini-batch size on the 4-node sharded Criteo
// Kaggle service: a larger batch touches more distinct rows per iteration,
// but the skewed head repeats within the batch, so intra-iteration dedup
// absorbs a growing share and the all-to-all bytes per input fall.
func MNBatchSweep() *report.Table {
	t := &report.Table{Header: []string{
		"batch", "cache hit", "gather", "a2a KB/iter", "a2a B/input", "Hotline iter"}}
	cfg := data.CriteoKaggle()
	const nodes = 4
	sys := cost.PaperCluster(nodes)
	for _, batch := range []int{256, 512, 1024, 2048} {
		m := pipeline.MeasureShard(cfg, pipeline.ShardProbe{
			Nodes: nodes, CacheBytes: pipeline.DefaultShardCacheBytes(cfg), Batch: batch})
		w := pipeline.NewShardedWorkload(cfg, batch*nodes, sys)
		t.AddRow(fmt.Sprint(batch),
			pct(m.HitRate, 1), pct(m.GatherFrac, 1),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/float64(batch)),
			pipeline.NewHotline().Iteration(w).Total.String())
	}
	t.Notes = "same harness as mn-scale at varying batch size: per-iteration a2a volume " +
		"grows sub-linearly in the batch because the Zipf head dedups within an " +
		"iteration, so the fabric cost per input falls as batches grow"
	return t
}
