package shard_test

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// TestWindowPoolPlateaus: the sharded executor at depth 4 makes windows only
// while its pipeline fills. Every window a step uses — the lookahead's
// prefetches and the popular pass's synchronous stagings — comes from the
// engine's one pool and goes back to it (and so leaves the open set), so
// 300 further steps find the pool exactly as the first twenty left it, at
// no more than tables x depth x 2 windows. One worker keeps the two
// µ-batch passes from overlapping, which makes the peak exact.
func TestWindowPoolPlateaus(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const depth, warm, steps = 4, 20, 300
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	defer svc.Close()
	tr := train.NewHotlineSharded(model.New(cfg, 1), 0.1, svc)
	tr.Depth = depth
	tr.LearnSamples = 512
	batches := data.NewGenerator(cfg).NextBatches(warm+steps, 64)

	// A stream's last steps have no lookahead left, so at the end of each
	// StepAll every window is back in the pool.
	train.StepAll(tr, batches[:warm], nil)
	filled := svc.Gatherer().PooledWindows()
	if filled == 0 || svc.Gatherer().Stats().Windows == 0 {
		t.Fatal("the warm-up issued no windows; the test is vacuous")
	}
	train.StepAll(tr, batches[warm:], nil)
	if got := svc.Gatherer().PooledWindows(); got != filled {
		t.Fatalf("pool grew from %d windows after %d steps to %d after %d more", filled, warm, got, steps)
	}
	if n := svc.Gatherer().OpenWindows(); n != 0 {
		t.Fatalf("%d windows still open after the stream's last step", n)
	}
	t.Logf("pool: %d windows for %d tables at depth %d", filled, cfg.NumTables, depth)
	if limit := cfg.NumTables * depth * 2; filled > limit {
		t.Fatalf("pool holds %d windows, over tables x depth x 2 = %d", filled, limit)
	}
	if err := svc.FabricErr(); err != nil {
		t.Fatal(err)
	}
}
