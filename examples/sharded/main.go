// Sharded embedding service: functional Hotline training on row-wise
// sharded tables with per-node hot-entry device caches. Training is
// bit-identical to the single-node executor for every node count (the
// determinism contract); what changes — and what this example prints — is
// the *measured* topology traffic: device-cache hit-rates and all-to-all
// gather/scatter volume per node count.
//
//	go run ./examples/sharded
package main

import (
	"fmt"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	cfg.Samples = 2048
	const iters, batch, seed = 8, 128, 42

	// Single-node reference run.
	ref := hotline.NewHotlineTrainer(hotline.NewModel(cfg, seed), 0.1)
	gen := hotline.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		ref.Step(gen.NextBatch(batch))
	}

	fmt.Println("Hotline µ-batch training on sharded embedding tables")
	fmt.Printf("%-6s %-12s %-10s %-12s %-12s %s\n",
		"nodes", "cache hit", "remote", "gather MB", "scatter MB", "state vs 1-node")
	for _, nodes := range []int{1, 2, 4, 8} {
		svc := hotline.NewShardService(hotline.ShardConfig{
			Nodes:      nodes,
			CacheBytes: hotline.DefaultShardCacheBytes(cfg),
			RowBytes:   int64(cfg.EmbedDim) * 4,
			Policy:     hotline.CacheSRRIP,
		}, nil)
		tr := hotline.NewHotlineShardedTrainer(hotline.NewModel(cfg, seed), 0.1, svc)
		g := hotline.NewGenerator(cfg)
		for i := 0; i < iters; i++ {
			tr.Step(g.NextBatch(batch))
		}
		st := svc.Snapshot()
		parity := "bit-identical"
		if d := hotline.MaxModelStateDiff(ref.M, tr.M); d != 0 {
			parity = fmt.Sprintf("DIVERGED %g", d)
		}
		fmt.Printf("%-6d %-12s %-10s %-12.2f %-12.2f %s\n",
			nodes,
			fmt.Sprintf("%.1f%%", st.HitRate()*100),
			fmt.Sprintf("%.1f%%", st.RemoteFrac()*100),
			float64(st.GatherBytes)/(1<<20), float64(st.ScatterBytes)/(1<<20),
			parity)
	}

	// The measured statistics feed the timing models directly.
	fmt.Println("\nMeasured vs analytic multi-node Hotline iteration (Criteo Kaggle):")
	for _, nodes := range []int{2, 4} {
		sys := hotline.PaperCluster(nodes)
		measured := hotline.NewShardedWorkload(hotline.CriteoKaggle(), 4096*nodes, sys)
		analytic := hotline.NewWorkload(hotline.CriteoKaggle(), 4096*nodes, sys)
		hl := hotline.NewHotlinePipeline()
		fmt.Printf("  %d nodes: measured %v  analytic %v  (cache hit %.1f%%)\n",
			nodes, hl.Iteration(measured).Total, hl.Iteration(analytic).Total,
			measured.Shard.HitRate*100)
	}
}
