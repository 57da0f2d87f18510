package experiments

import (
	"fmt"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
)

// The mn-* family are the multi-node scenarios of the sharded embedding
// subsystem: unlike the fig* experiments (closed-form timing models), every
// number here is *measured* by replaying real access streams against real
// shard topology and device-cache state (internal/shard), then priced with
// the internal/cost link models.

func init() {
	registry["mn-scale"] = regEntry{"Multi-node sharded embeddings: node-count scaling (measured)", MNScale}
	registry["mn-cache"] = regEntry{"Multi-node sharded embeddings: device-cache size ablation", MNCacheSize}
	registry["mn-skew"] = regEntry{"Multi-node sharded embeddings: static vs evolving skew", MNEvolvingSkew}
}

// mnBatch is the per-iteration mini-batch the scenarios replay.
const mnBatch = 1024

// MNScale measures the sharded service across 1/2/4/8 nodes on Criteo
// Kaggle: device-cache hit-rate, all-to-all volume, and the Hotline
// iteration time when the timing model consumes the measured fractions
// instead of the analytic ones (the Figure 30 claim, now measured).
func MNScale() *report.Table {
	t := &report.Table{Header: []string{
		"nodes", "cache hit", "remote", "gather", "a2a KB/iter", "a2a time",
		"exposed", "Hotline iter (measured)", "(analytic)"}}
	cfg := data.CriteoKaggle()
	for _, nodes := range []int{1, 2, 4, 8} {
		sys := cost.PaperCluster(nodes)
		m := pipeline.MeasureShard(cfg, pipeline.ShardProbe{
			Nodes: nodes, CacheBytes: pipeline.DefaultShardCacheBytes(cfg), Batch: mnBatch})
		st := shard.Stats{Nodes: nodes, GatherBytes: m.A2ABytesPerIter}
		measured := pipeline.NewShardedWorkload(cfg, 4096*nodes, sys)
		analytic := pipeline.NewWorkload(cfg, 4096*nodes, sys)
		hl := pipeline.NewHotline()
		exposed := "-"
		if measured.Shard.OverlapMeasured {
			exposed = pct(measured.Shard.ExposedFrac, 1)
		}
		t.AddRow(fmt.Sprint(nodes),
			pct(m.HitRate, 1), pct(m.RemoteFrac, 1), pct(m.GatherFrac, 1),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024),
			pipeline.AllToAllTime(st, sys).String(),
			exposed,
			hl.Iteration(measured).Total.String(),
			hl.Iteration(analytic).Total.String())
	}
	t.Notes = "measured on scaled tables: remote fraction grows as (n-1)/n but the " +
		"hot-entry caches absorb the skewed head, keeping the gather fraction low; " +
		"the exposed column is the pipelined async engine's measured exposed-gather " +
		"fraction, which the Hotline timing model prices by default"
	return t
}

// MNCacheSize ablates the per-node device-cache budget at 4 nodes: a
// smaller cache holds less of the learned hot set's head, the hit-rate
// falls, and the all-to-all volume the fabric must carry grows.
func MNCacheSize() *report.Table {
	t := &report.Table{Header: []string{
		"cache/node", "occupancy", "cache hit", "gather", "a2a KB/iter"}}
	cfg := data.CriteoKaggle()
	full := pipeline.DefaultShardCacheBytes(cfg)
	for _, div := range []int64{16, 8, 4, 2, 1} {
		cache := full / div
		m := pipeline.MeasureShard(cfg, pipeline.ShardProbe{
			Nodes: 4, CacheBytes: cache, Batch: mnBatch})
		t.AddRow(fmt.Sprintf("%dKB", cache>>10),
			pct(m.CacheOccupancy, 1), pct(m.HitRate, 1), pct(m.GatherFrac, 1),
			fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024))
	}
	t.Notes = "the full hot-set budget caches the skewed head entirely; " +
		"shrinking it trades device memory for fabric traffic"
	return t
}

// MNEvolvingSkew replays days 0..3 of Criteo Terabyte's drifting popularity
// against two services whose caches hold the day-0 hot set: on the static
// one the set goes stale, the hit-rate decays, and the fabric pays for it
// (Figure 9's evolving-skew argument, measured end to end on the sharded
// substrate); the re-learned one profiles each day's head and swaps it in
// at the day boundary (Service.Relearn), as Hotline's learning phase
// re-samples. One stream feeds both: a learning window of one scaled epoch,
// then the measured batches, so no set is measured on the samples it was
// learned from.
func MNEvolvingSkew() *report.Table {
	t := &report.Table{Header: []string{
		"day", "cache hit", "gather", "a2a KB/iter", "a2a time vs day 0",
		"re-learned hit", "re-learned gather"}}
	cfg := data.CriteoTerabyte()
	probe := cfg
	probe.Samples = 4096
	const nodes = 4
	sys := cost.PaperCluster(nodes)

	// learn profiles the stream's next epoch and picks its hot set, like the
	// learning phase.
	gen := data.NewGenerator(probe)
	learn := func() *embedding.Placement {
		prof := data.ProfileEpoch(gen, 512)
		return embedding.PlacementFromCounts(
			prof.Counts(), probe.NumTables, probe.EmbedDim, data.ScaledHotBudget(probe))
	}
	day0 := learn()
	warmed := func() *shard.Service {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: pipeline.DefaultShardCacheBytes(probe),
			RowBytes: int64(probe.EmbedDim) * 4,
		}, nil)
		for tbl := 0; tbl < probe.NumTables; tbl++ {
			svc.RegisterTable(tbl, probe.ScaledRowsPerTable[tbl], nil) // a replay: no window is filled
		}
		svc.Relearn(day0)
		return svc
	}
	static, relearned := warmed(), warmed()

	var a2a0 float64
	for day := 0; day <= 3; day++ {
		if day > 0 {
			gen.SetDay(day)
			relearned.Relearn(learn())
		}
		static.ResetStats()
		relearned.ResetStats()
		for i := 0; i < 4; i++ {
			b := gen.NextBatch(mnBatch)
			for tbl := range b.Sparse {
				for _, svc := range []*shard.Service{static, relearned} {
					svc.RecordGather(tbl, b.Sparse[tbl])
					svc.RecordScatter(tbl, b.Sparse[tbl])
				}
			}
		}
		st, re := static.Snapshot(), relearned.Snapshot()
		a2a := float64(pipeline.AllToAllTime(st, sys))
		if day == 0 {
			a2a0 = a2a
		}
		t.AddRow(fmt.Sprint(day),
			pct(st.HitRate(), 1), pct(st.GatherFrac(), 1),
			fmt.Sprintf("%.1f", float64(st.A2ABytes())/4/1024),
			fmt.Sprintf("%.2fx", a2a/a2a0),
			pct(re.HitRate(), 1), pct(re.GatherFrac(), 1))
	}
	t.Notes = "paper Fig 9: popular embeddings drift within days; a day-0 hot set " +
		"decays, which is why Hotline re-samples 5% of batches instead of profiling " +
		"offline; the re-learned columns swap each day's profiled head into the caches"
	return t
}
