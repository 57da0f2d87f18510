package train

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
)

func shardedCfg() data.Config {
	cfg := data.CriteoKaggle()
	cfg.Samples = 512
	return cfg
}

// TestShardedHotlineParity is the executor-level determinism contract: the
// Hotline trainer on sharded tables produces bit-identical model state to
// the unsharded trainer for every node count, while the service records
// real traffic.
func TestShardedHotlineParity(t *testing.T) {
	cfg := shardedCfg()
	const seed, iters, batch = 42, 4, 64

	ref := NewHotline(model.New(cfg, seed), 0.1)
	refGen := data.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		ref.Step(refGen.NextBatch(batch))
	}

	for _, nodes := range []int{1, 2, 4, 8} {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		hot := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
		gen := data.NewGenerator(cfg)
		for i := 0; i < iters; i++ {
			hot.Step(gen.NextBatch(batch))
		}

		if !model.DenseStateEqual(ref.M, hot.M) {
			t.Fatalf("nodes=%d: dense state diverged", nodes)
		}
		if !model.SparseStateEqual(ref.M, hot.M) {
			t.Fatalf("nodes=%d: sparse state diverged", nodes)
		}

		st := svc.Snapshot()
		if st.Lookups == 0 {
			t.Fatalf("nodes=%d: service recorded no lookups", nodes)
		}
		if nodes == 1 && st.A2ABytes() != 0 {
			t.Fatalf("single node must move no bytes: %+v", st)
		}
		if nodes > 1 && (st.GatherBytes == 0 || st.ScatterBytes == 0) {
			t.Fatalf("nodes=%d: expected all-to-all traffic: %+v", nodes, st)
		}
	}
}

// TestShardedHotlineParallelDeterminism re-runs the sharded executor under
// different worker counts: the model state must stay bit-identical (the
// PR 1 determinism contract extended to sharded tables).
func TestShardedHotlineParallelDeterminism(t *testing.T) {
	cfg := shardedCfg()
	run := func(workers int) *model.Model {
		old := par.SetWorkers(workers)
		defer par.SetWorkers(old)
		svc := shard.New(shard.Config{
			Nodes: 4, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		tr := NewHotlineSharded(model.New(cfg, 7), 0.1, svc)
		gen := data.NewGenerator(cfg)
		for i := 0; i < 3; i++ {
			tr.Step(gen.NextBatch(48))
		}
		return tr.M
	}
	a, b := run(1), run(4)
	if !model.DenseStateEqual(a, b) || !model.SparseStateEqual(a, b) {
		t.Fatal("sharded training must be bit-identical across worker counts")
	}
}

// TestShardedAdagradTrainerParity is the mn-adagrad scenario's contract at
// the executor level: end-to-end Hotline training under dense + sparse
// Adagrad on sharded tables is bit-identical to the unsharded Adagrad
// executor for every node count (the accumulators are globally indexed and
// the merged per-mini-batch update is applied in fixed table order).
func TestShardedAdagradTrainerParity(t *testing.T) {
	cfg := shardedCfg()
	const seed, iters, batch = 77, 4, 64

	ref := NewHotline(model.New(cfg, seed).SetOptimizer(model.NewAdagrad), 0.1)
	refGen := data.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		ref.Step(refGen.NextBatch(batch))
	}

	for _, nodes := range []int{1, 2, 4} {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		hot := NewHotlineSharded(model.New(cfg, seed).SetOptimizer(model.NewAdagrad), 0.1, svc)
		// One batch ahead: the pipeline must hold for Adagrad too.
		StepAll(hot, data.NewGenerator(cfg).NextBatches(iters, batch), nil)
		if !model.DenseStateEqual(ref.M, hot.M) || !model.SparseStateEqual(ref.M, hot.M) {
			t.Fatalf("nodes=%d: sharded Adagrad training diverged from unsharded executor", nodes)
		}
	}
}
