package embedding

import (
	"testing"

	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// TestShardedAdagradBitParity drives a single-node Table and ShardedBags at
// several node counts through identical forward/backward/Adagrad streams:
// the lifted Bag method must leave bit-identical weights and accumulators
// for every node count (the ROADMAP "Adagrad on sharded tables" item).
func TestShardedAdagradBitParity(t *testing.T) {
	const rows, dim, iters, batch = 96, 8, 12, 16
	mkIdx := func(it int) [][]int32 {
		idx := make([][]int32, batch)
		for b := range idx {
			idx[b] = []int32{
				int32((it*17 + b*5) % rows),
				int32((it*29 + b*11) % rows),
				int32((it + b) % 7), // skewed head rows repeat
			}
		}
		return idx
	}
	mkGrad := func(it int) *tensor.Matrix {
		g := tensor.New(batch, dim)
		rng := tensor.NewRNG(uint64(1000 + it))
		tensor.UniformInit(g, 0.5, rng)
		return g
	}

	train := func(b Bag) {
		st := NewAdagradStateFor(b)
		for it := 0; it < iters; it++ {
			idx := mkIdx(it)
			b.Forward(idx)
			sg := b.BackwardIndices(idx, mkGrad(it))
			b.ApplySparseAdagrad(st, sg, 0.05)
		}
	}

	ref := NewTable(rows, dim, tensor.NewRNG(7))
	train(ref)

	for _, nodes := range []int{1, 2, 4, 8} {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: 16 * int64(dim) * 4, RowBytes: int64(dim) * 4,
		}, nil)
		sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(7)), svc, 0)
		train(sb)
		if !BagsEqual(Bags{ref}, Bags{sb}) {
			t.Fatalf("nodes=%d: Adagrad state diverged from single-node table", nodes)
		}
	}
}

// TestShardedAdagradHotAwarePlacement repeats the parity check under a
// non-uniform (hot-aware) placement: relocating rows must never change
// the optimizer trajectory.
func TestShardedAdagradHotAwarePlacement(t *testing.T) {
	const rows, dim = 64, 4
	idx := [][]int32{{0, 1, 2}, {0, 5, 9}, {1, 33, 2}, {0, 2, 63}}
	grad := tensor.New(len(idx), dim)
	tensor.UniformInit(grad, 1, tensor.NewRNG(3))

	step := func(b Bag) {
		st := NewAdagradStateFor(b)
		for i := 0; i < 4; i++ {
			b.Forward(idx)
			sg := b.BackwardIndices(idx, grad)
			b.ApplySparseAdagrad(st, sg, 0.1)
		}
	}

	ref := NewTable(rows, dim, tensor.NewRNG(11))
	step(ref)

	rc := shard.NewRequestCounter(4)
	rc.Observe(0, idx)
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 0, RowBytes: int64(dim) * 4, Part: rc.HotAware(nil),
	}, nil)
	sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(11)), svc, 0)
	step(sb)
	if !BagsEqual(Bags{ref}, Bags{sb}) {
		t.Fatal("hot-aware placement changed the Adagrad trajectory")
	}
}
