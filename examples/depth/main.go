// Depth-k prefetch pipeline and ownership placement on the sharded
// substrate. The Hotline executor stages up to k-1 future mini-batches —
// accelerator classification plus their non-popular fabric gathers — so up
// to k gather windows stream while earlier iterations finish; k=1 is the
// synchronous baseline (every gather inline and fully exposed) and k=2 the
// classic overlap pair to it. Staged rows that a later sparse update
// rewrites are delta-repaired before use, keeping every depth bit-identical
// to batch-by-batch stepping; the opt-in stale mode
// (ShardService.SetStaleReads) skips the repair and lets you measure what
// that staleness costs. Row ownership, in turn, can follow the request skew
// instead of blind round-robin. Training stays bit-identical in every mode —
// what changes, and what this example prints, is the measured traffic: the
// exposed-gather fraction and repair traffic each depth pays, and how many
// all-to-all bytes each placement moves.
//
//	go run ./examples/depth
package main

import (
	"fmt"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	cfg.Samples = 2048
	const iters, batch, seed, nodes = 10, 256, 42, 4

	run := func(depth int, stale bool) (*hotline.Model, hotline.ShardStats) {
		svc := hotline.NewShardService(hotline.ShardConfig{
			Nodes:      nodes,
			CacheBytes: hotline.DefaultShardCacheBytes(cfg),
			RowBytes:   int64(cfg.EmbedDim) * 4,
		}, nil)
		defer svc.Close()
		svc.SetStaleReads(stale)
		tr := hotline.NewHotlineShardedTrainer(hotline.NewModel(cfg, seed), 0.1, svc)
		tr.Depth = depth
		tr.LearnSamples = 512
		hotline.StepAll(tr, hotline.NewGenerator(cfg).NextBatches(iters, batch), nil)
		return tr.M, svc.Gatherer().Stats()
	}

	refM, syncStats := run(1, false)
	fmt.Printf("Depth-k prefetch pipeline (%d nodes, Criteo Kaggle, %d rows gathered inline in %v at k=1):\n",
		nodes, syncStats.SyncRows, syncStats.ExposedGather())
	for _, k := range []int{1, 2, 4, 8} {
		m, st := run(k, false)
		// The run's exposed share of the synchronous (k=1) gather time.
		exposed := min(100, 100*float64(st.ExposedGather())/float64(syncStats.ExposedGather()))
		parity := "bit-identical"
		if d := hotline.MaxModelStateDiff(refM, m); d != 0 {
			parity = fmt.Sprintf("DIVERGED %g", d)
		}
		fmt.Printf("  k=%d  windows %3d  prefetched %5d rows  exposed %5.1f%%  repaired rows %4d (%5.1f KB)  %s\n",
			k, st.Windows, st.PrefetchRows, exposed, st.RepairRows,
			float64(st.RepairBytes)/1024, parity)
	}

	// The stale ablation: skip the repair and measure the divergence.
	staleM, staleStats := run(8, true)
	fmt.Printf("  k=8 stale mode: %d rows served stale, max |Δw| %.3g vs exact training\n",
		staleStats.StaleRows, hotline.MaxModelStateDiff(refM, staleM))

	// Ownership placement: who owns the popular rows.
	fmt.Println("\nOwnership placement (4 nodes, cache at 1/8 hot budget):")
	full := hotline.CriteoKaggle()
	cache := hotline.DefaultShardCacheBytes(full) / 8
	for _, kind := range []hotline.ShardPlacementKind{
		hotline.PlaceRoundRobin, hotline.PlaceCapacity, hotline.PlaceHotAware,
	} {
		probe := hotline.ShardProbe{Nodes: nodes, CacheBytes: cache, Batch: 1024, Placement: kind}
		if kind == hotline.PlaceCapacity {
			// Ownership weights derive from real per-node HBM budgets.
			probe.HBMBytes = []int64{4 * cache, 2 * cache, 2 * cache, cache}
		}
		m := hotline.MeasureShard(full, probe)
		fmt.Printf("  %-18s local %5.1f%%  cache hit %5.1f%%  a2a %7.1f KB/iter\n",
			m.Placement, m.LocalFrac*100, m.HitRate*100, float64(m.A2ABytesPerIter)/1024)
	}
}
