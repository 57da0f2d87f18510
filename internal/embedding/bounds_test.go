package embedding

import (
	"fmt"
	"testing"

	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// mustPanicWith runs f and requires it to panic, on the calling goroutine,
// with exactly msg.
func mustPanicWith(t *testing.T, what, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic, want %q", what, msg)
		}
		if got := fmt.Sprint(r); got != msg {
			t.Fatalf("%s: panic %q, want %q", what, got, msg)
		}
	}()
	f()
}

// TestOutOfRangeIndexPanicsUpFront: a bad index is rejected before any
// routing or accounting runs, on the caller's goroutine, by every entry point
// that takes an index set. Before the up-front check ShardedBag.Forward had
// already admitted rows and advanced counters when the kernel noticed, and
// Prefetch handed the row to a drainer goroutine whose panic nobody can
// recover.
func TestOutOfRangeIndexPanicsUpFront(t *testing.T) {
	const rows, dim = 40, 4
	for _, bad := range []int32{rows, -1} {
		msg := fmt.Sprintf("embedding: index %d out of range [0,%d)", bad, rows)
		// The bad lookup sits behind valid remote ones, so an accounting pass
		// that ran first would have moved counters and admitted rows.
		idx := [][]int32{{1, 2, 3}, {4, 5, bad}, {6}}

		tab := NewTable(rows, dim, tensor.NewRNG(1))
		mustPanicWith(t, "Table.Forward", msg, func() { tab.Forward(idx) })
		mustPanicWith(t, "Table.ServeForward", msg, func() { tab.ServeForward(idx) })

		for _, quant := range []shard.QuantMode{shard.QuantOff, shard.QuantMixed} {
			svc := shard.New(shard.Config{
				Nodes: 4, CacheBytes: 16 * dim * 4, RowBytes: dim * 4, Quant: quant,
			}, nil)
			sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(2)), svc, 0)
			sb.Forward([][]int32{{7, 8}, {9}}) // some state to leave untouched
			train, serve := svc.Snapshot().WithoutWall(), svc.ServeSnapshot().WithoutWall()
			entries, occ := svc.CacheEntries(), svc.CacheOccupancy()
			overlap := svc.Gatherer().Stats()

			mustPanicWith(t, "ShardedBag.Forward", msg, func() { sb.Forward(idx) })
			mustPanicWith(t, "ShardedBag.Prefetch", msg, func() { sb.Prefetch(idx) })
			mustPanicWith(t, "ShardedBag.ServeForward", msg, func() { sb.ServeForward(idx) })

			if got := svc.Snapshot().WithoutWall(); got != train {
				t.Fatalf("quant %v: training counters moved: %+v -> %+v", quant, train, got)
			}
			if got := svc.ServeSnapshot().WithoutWall(); got != serve {
				t.Fatalf("quant %v: serve counters moved: %+v -> %+v", quant, serve, got)
			}
			if svc.CacheEntries() != entries || svc.CacheOccupancy() != occ {
				t.Fatalf("quant %v: cache occupancy moved: %d entries -> %d", quant, entries, svc.CacheEntries())
			}
			if n := sb.PendingWindows(); n != 0 {
				t.Fatalf("quant %v: %d prefetch windows were pushed", quant, n)
			}
			if got := svc.Gatherer().Stats(); got.Windows != overlap.Windows || got.SyncWindows != overlap.SyncWindows {
				t.Fatalf("quant %v: gather windows were issued: %+v -> %+v", quant, overlap, got)
			}
			svc.Close()
		}
	}
}
