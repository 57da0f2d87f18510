package shard_test

import (
	"testing"

	"hotline/internal/embedding"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// The tests below pin the prefetch-window hand-off at the sharded bag: the
// instance that prefetched a window is the one whose forward consumes it,
// oldest first, and the service's MarkDirty reaches every open window of the
// table, whichever instance holds it.

const bagRows, bagDim = 64, 16

// bagService is a full-cache service over nodes nodes at the given tiering.
// Under a uniform narrow mode with no classifier every remote row is staged
// through the quantized round trip, so a staged row differs from the table's.
func bagService(t *testing.T, nodes int, quant shard.QuantMode) *shard.Service {
	t.Helper()
	svc := shard.New(shard.Config{
		Nodes: nodes, CacheBytes: bagRows * bagDim * 4, RowBytes: bagDim * 4, Quant: quant,
	}, nil)
	t.Cleanup(func() { svc.Close() })
	return svc
}

// bagOn shards a fresh copy of the test table (the same rows every call)
// through svc.
func bagOn(svc *shard.Service) *embedding.ShardedBag {
	return embedding.ShardBag(embedding.NewTable(bagRows, bagDim, tensor.NewRNG(5)), svc, 0)
}

// bagIndices builds 8 bags of 4 lookups, row (b*step + k*off) % bagRows.
func bagIndices(step, off int) [][]int32 {
	idx := make([][]int32, 8)
	for b := range idx {
		for k := 0; k < 4; k++ {
			idx[b] = append(idx[b], int32((b*step+k*off)%bagRows))
		}
	}
	return idx
}

func TestShardedBagWindowsConsumeInOrder(t *testing.T) {
	idxA, idxB := bagIndices(3, 17), bagIndices(5, 11)
	for _, quant := range []shard.QuantMode{shard.QuantOff, shard.QuantINT8} {
		svc := bagService(t, 4, quant)
		sb := bagOn(svc)
		sb.Prefetch(idxA)
		sb.Prefetch(idxB)
		outA := sb.Forward(idxA).Clone()
		outB := sb.Forward(idxB).Clone()
		if st := svc.Snapshot(); st.Windows != 2 || st.SyncWindows != 0 {
			t.Fatalf("quant %v: windows %d, sync windows %d; want both forwards to consume a prefetch", quant, st.Windows, st.SyncWindows)
		}

		ref := bagOn(bagService(t, 4, quant))
		if want := ref.Forward(idxA); !outA.Equal(want) {
			t.Fatalf("quant %v: first forward differs from a synchronous gather", quant)
		}
		if want := ref.Forward(idxB); !outB.Equal(want) {
			t.Fatalf("quant %v: second forward differs from a synchronous gather", quant)
		}
		if exact := bagOn(bagService(t, 1, quant)).Forward(idxA); quant != shard.QuantOff && outA.Equal(exact) {
			t.Fatalf("quant %v: staged rows read like table rows; a window consumed out of order would pass", quant)
		}
	}
}

func TestShardedBagWindowAllLocalNotReplanned(t *testing.T) {
	// Pure remote: a forward that planned again would gather synchronously.
	svc := shard.New(shard.Config{Nodes: 2, RowBytes: bagDim * 4}, nil)
	defer svc.Close()
	sb := bagOn(svc)
	local := [][]int32{{0, 2}, {1, 3}}  // node 0 owns the even rows, node 1 the odd
	remote := [][]int32{{1, 3}, {0, 2}} // every lookup crosses the fabric
	sb.Prefetch(local)
	sb.Prefetch(remote)
	before := svc.Snapshot()
	if before.Windows != 1 {
		t.Fatalf("an all-local prefetch submitted a window: %d windows", before.Windows)
	}
	outL := sb.Forward(local).Clone()
	outR := sb.Forward(remote).Clone()
	after := svc.Snapshot()
	if after.Lookups != before.Lookups || after.SyncWindows != before.SyncWindows {
		t.Fatalf("forwards planned again: lookups %d -> %d, sync windows %d -> %d",
			before.Lookups, after.Lookups, before.SyncWindows, after.SyncWindows)
	}
	ref := bagOn(bagService(t, 1, shard.QuantOff))
	if !outL.Equal(ref.Forward(local)) || !outR.Equal(ref.Forward(remote)) {
		t.Fatal("forwards differ from the table's")
	}
}

func TestShardedBagWindowShadowRepair(t *testing.T) {
	idx, next := bagIndices(3, 17), bagIndices(7, 9)
	grad := tensor.New(len(idx), bagDim)
	grad.Fill(0.25)
	for _, quant := range []shard.QuantMode{shard.QuantOff, shard.QuantINT8} {
		svc := bagService(t, 4, quant)
		sb := bagOn(svc)
		sh := sb.ShadowBag().(*embedding.ShardedBag)
		sb.Forward(idx)
		sg := sb.Backward(grad)
		sh.Prefetch(next) // staged before the primary's update rewrites its rows
		sb.ApplySparseSGD(sg, 0.5)
		got := sh.Forward(next).Clone()
		if svc.Snapshot().RepairRows == 0 {
			t.Fatalf("quant %v: the primary's update repaired nothing the shadow staged", quant)
		}

		ref := bagOn(bagService(t, 4, quant))
		ref.Forward(idx)
		ref.ApplySparseSGD(ref.Backward(grad), 0.5)
		if !got.Equal(ref.Forward(next)) {
			t.Fatalf("quant %v: the shadow's window differs from a synchronous gather after the update", quant)
		}
	}
}

func TestShardedBagWindowAbortEmptiesOpenSet(t *testing.T) {
	// Pure remote: no cache hit can leave a forward with nothing to gather.
	svc := shard.New(shard.Config{Nodes: 4, RowBytes: bagDim * 4}, nil)
	defer svc.Close()
	g := svc.Gatherer()
	sb := bagOn(svc)
	idxA, idxB := bagIndices(3, 17), bagIndices(5, 11)
	sb.Prefetch(idxA)
	sb.Prefetch(idxB)
	if n := g.OpenWindows(); n != 2 {
		t.Fatalf("%d windows open after two prefetches", n)
	}
	sb.AbortPrefetch()
	if n := g.OpenWindows(); n != 0 {
		t.Fatalf("abort left %d windows open", n)
	}
	if n := g.PooledWindows(); n != 2 {
		t.Fatalf("abort returned %d windows to the pool, want 2", n)
	}
	before := svc.Snapshot()
	out := sb.Forward(idxB).Clone()
	after := svc.Snapshot()
	if after.SyncWindows != before.SyncWindows+1 || after.Windows != before.Windows {
		t.Fatalf("the forward after an abort consumed a window: sync windows %d -> %d, windows %d -> %d",
			before.SyncWindows, after.SyncWindows, before.Windows, after.Windows)
	}
	if !out.Equal(bagOn(bagService(t, 1, shard.QuantOff)).Forward(idxB)) {
		t.Fatal("forward after an abort differs from the table's")
	}
}
