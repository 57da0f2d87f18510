package embedding

import (
	"testing"

	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// The zero-allocation contract holds for the steady-state serial path:
// at Parallelism(1) every per-step buffer is reused, so after a short
// warm-up the hot operators perform no allocations at all. (Parallel runs
// allocate the goroutine fan-out itself; that is the cost of forking, not
// of the operators.)

// allocIdx builds a deterministic multi-hot index stream.
func allocIdx(rows, batch, lookups, salt int) [][]int32 {
	idx := make([][]int32, batch)
	for b := range idx {
		l := make([]int32, lookups)
		for j := range l {
			l[j] = int32((salt + b*7 + j*13) % rows)
		}
		idx[b] = l
	}
	return idx
}

// allocLookups is the gates' bag length: one block of four through the
// blocked kernels plus a scalar tail of two.
const allocLookups = 6

// TestTableForwardBackwardZeroAlloc: the single-node bag's forward, the
// radix-ordered backward (both pair buffers) and the sparse update reuse
// their scratch entirely.
func TestTableForwardBackwardZeroAlloc(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	tab := NewTable(256, 16, tensor.NewRNG(1))
	idx := allocIdx(256, 32, allocLookups, 1)
	grad := tensor.New(32, 16)
	grad.Fill(0.01)
	for i := 0; i < 3; i++ { // warm the scratch buffers
		tab.Forward(idx)
		sg := tab.Backward(grad)
		tab.ApplySparseSGD(sg, 0.01)
	}
	if n := testing.AllocsPerRun(50, func() {
		tab.Forward(idx)
		sg := tab.Backward(grad)
		tab.ApplySparseSGD(sg, 0.01)
	}); n > 0 {
		t.Fatalf("Table forward/backward/update allocated %.1f times per step, want 0", n)
	}
}

// newAllocService builds a 4-node service whose cache holds eight rows.
func newAllocService(t *testing.T, dim int) *shard.Service {
	t.Helper()
	return shard.New(shard.Config{
		Nodes: 4, CacheBytes: 8 * int64(dim) * 4, RowBytes: int64(dim) * 4,
	}, nil)
}

// TestShardedForwardZeroAlloc: the synchronous staged-gather path — window,
// accounting dedup and output — cycles entirely through the engine's pool
// and the service scratch.
func TestShardedForwardZeroAlloc(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const dim = 16
	svc := newAllocService(t, dim)
	sb := ShardBag(NewTable(256, dim, tensor.NewRNG(2)), svc, 0)
	idx := allocIdx(256, 32, allocLookups, 2)
	grad := tensor.New(32, dim)
	grad.Fill(0.01)
	for i := 0; i < 3; i++ {
		sb.Forward(idx)
		sg := sb.Backward(grad)
		sb.ApplySparseSGD(sg, 0.01)
	}
	if n := testing.AllocsPerRun(50, func() {
		sb.Forward(idx)
		sg := sb.Backward(grad)
		sb.ApplySparseSGD(sg, 0.01)
	}); n > 0 {
		t.Fatalf("sharded sync forward/backward allocated %.1f times per step, want 0", n)
	}
}

// TestPrefetchPathZeroAlloc: the asynchronous prefetch-then-consume window
// — plan, staging buffer, completion state and dirty list in one object —
// recycles through the engine's pool, and idle owner queues are woken by a
// cond signal to a PERSISTENT drainer goroutine — no per-window `go`
// statement — so the steady-state path allocates nothing at all.
func TestPrefetchPathZeroAlloc(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const dim = 16
	svc := newAllocService(t, dim)
	sb := ShardBag(NewTable(256, dim, tensor.NewRNG(3)), svc, 0)
	idx := allocIdx(256, 32, allocLookups, 3)
	for i := 0; i < 8; i++ {
		sb.Prefetch(idx)
		sb.Forward(idx)
	}
	if n := testing.AllocsPerRun(50, func() {
		sb.Prefetch(idx)
		sb.Forward(idx)
	}); n > 0 {
		t.Fatalf("prefetch path allocated %.1f times per window, want 0", n)
	}
}

// TestShardedStepZeroAlloc: one table's whole steady-state step on the
// sharded bag — prefetch (plan, dedup stamps, cache index, staging), the
// consuming forward, the radix-ordered backward with its scatter accounting,
// and the blocked update — allocates nothing, with a cache small enough that
// it fills and refuses admissions every step, and under both update rules.
func TestShardedStepZeroAlloc(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const dim = 16
	svc := newAllocService(t, dim)
	sb := ShardBag(NewTable(256, dim, tensor.NewRNG(4)), svc, 0)
	ada := NewAdagradStateFor(sb)
	idx := allocIdx(256, 32, allocLookups, 4)
	grad := tensor.New(32, dim)
	grad.Fill(0.01)
	step := func() {
		sb.Prefetch(idx)
		sb.Forward(idx)
		sb.ApplySparseSGD(sb.Backward(grad), 0.01)
		sb.ApplySparseAdagrad(ada, sb.Backward(grad), 0.01)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if n := testing.AllocsPerRun(50, step); n > 0 {
		t.Fatalf("sharded step allocated %.1f times, want 0", n)
	}
	// Every miss asks for an admission and nothing leaves, so a miss that
	// added no entry was refused.
	if st := svc.Snapshot(); st.FillBytes == 0 || st.CacheMisses <= int64(svc.CacheEntries()) {
		t.Fatal("the gate's cache never admitted or never refused: the admission path was not exercised")
	}
}
