package embedding

import (
	"strings"
	"testing"

	"hotline/internal/shard"
	"hotline/internal/tensor"
)

func shardSvc(nodes, cacheRows, dim int) *shard.Service {
	return shard.New(shard.Config{
		Nodes: nodes, CacheBytes: int64(cacheRows) * int64(dim) * 4,
		RowBytes: int64(dim) * 4,
	}, nil)
}

// randIndices draws deterministic multi-hot index lists.
func randIndices(rng *tensor.RNG, batch, lookups, rows int) [][]int32 {
	idx := make([][]int32, batch)
	for b := range idx {
		idx[b] = make([]int32, lookups)
		for j := range idx[b] {
			idx[b][j] = int32(rng.Intn(rows))
		}
	}
	return idx
}

// TestShardedBagBitIdentical is the determinism contract of the sharded
// subsystem: forward outputs, sparse gradients and post-update weights are
// bit-identical to the single-node Table for shard counts {1,2,4,8},
// including duplicate indices within a bag and multi-round training.
func TestShardedBagBitIdentical(t *testing.T) {
	const rows, dim, batch, lookups, steps = 37, 8, 16, 4, 5
	for _, nodes := range []int{1, 2, 4, 8} {
		ref := NewTable(rows, dim, tensor.NewRNG(7))
		sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(7)), shardSvc(nodes, 8, dim), 0)

		rngA := tensor.NewRNG(99)
		rngB := tensor.NewRNG(99)
		for step := 0; step < steps; step++ {
			idxA := randIndices(rngA, batch, lookups, rows)
			idxB := randIndices(rngB, batch, lookups, rows)

			outA := ref.Forward(idxA)
			outB := sb.Forward(idxB)
			if !outA.Equal(outB) {
				t.Fatalf("nodes=%d step=%d: forward diverged", nodes, step)
			}

			grad := tensor.New(batch, dim)
			grng := tensor.NewRNG(uint64(1000 + step))
			for i := range grad.Data {
				grad.Data[i] = float32(grng.NormFloat64())
			}
			sgA := ref.Backward(grad)
			sgB := sb.Backward(grad)
			if len(sgA.Rows) != len(sgB.Rows) || !sgA.Grad.Equal(sgB.Grad) {
				t.Fatalf("nodes=%d step=%d: backward diverged", nodes, step)
			}
			for i := range sgA.Rows {
				if sgA.Rows[i] != sgB.Rows[i] {
					t.Fatalf("nodes=%d: gradient row order diverged", nodes)
				}
			}

			ref.ApplySparseSGD(sgA, 0.05)
			sb.ApplySparseSGD(sgB, 0.05)
		}
		if !ref.W.Equal(sb.Materialize()) {
			t.Fatalf("nodes=%d: weights diverged after %d steps", nodes, steps)
		}
	}
}

// TestShardedBagImplementsBag pins both implementations to the interface.
func TestShardedBagImplementsBag(t *testing.T) {
	var _ Bag = &Table{}
	var _ Bag = &ShardedBag{}
}

func TestShardedBagAccounting(t *testing.T) {
	const rows, dim = 16, 4
	svc := shardSvc(4, 8, dim)
	sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(1)), svc, 0)

	idx := [][]int32{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	out := sb.Forward(idx)
	sb.Backward(tensor.New(out.Rows, dim))

	st := svc.Snapshot()
	if st.Lookups != 8 {
		t.Fatalf("lookups = %d want 8", st.Lookups)
	}
	// Row r is owned by node r%4; sample b runs on node b%4. Only sample 0
	// (row 0) and sample 3 (row 7) touch a locally owned row; the other six
	// accesses are remote cold misses.
	if st.Local != 2 || st.CacheMisses != 6 {
		t.Fatalf("routing: %+v", st)
	}
	if st.GatherBytes != 6*int64(dim)*4 || st.ScatterBytes != 6*int64(dim)*4 {
		t.Fatalf("traffic: %+v", st)
	}
}

func TestShardedBagShadowSharesWeights(t *testing.T) {
	const rows, dim = 12, 4
	sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(3)), shardSvc(3, 4, dim), 0)
	sh := sb.ShadowBag().(*ShardedBag)

	idx := [][]int32{{1, 2}}
	sh.Forward(idx)
	sg := sh.Backward(tensor.FromSlice(1, dim, []float32{1, 1, 1, 1}))
	sb.ApplySparseSGD(sg, 0.5)

	// The shadow reads the primary's updated weights (shared storage).
	for _, r := range []int{1, 2} {
		a, b := sb.RowView(r), sh.RowView(r)
		for k := range a {
			if a[k] != b[k] {
				t.Fatal("shadow must share weight storage")
			}
		}
	}
	// The primary's forward cache must be untouched by the shadow's pass.
	if sb.tab.lastIndices != nil {
		t.Fatal("shadow forward must not disturb the primary's cache")
	}
}

// TestShardBagTakesTheTableOver pins ShardBag's storage contract: the bag
// and its shadows read and write the rows of the table they were built from
// — nothing is copied or re-packed, whatever the placement — so a caller
// that wants an independent reference must Clone before sharding.
func TestShardBagTakesTheTableOver(t *testing.T) {
	const rows, dim = 12, 4
	tab := NewTable(rows, dim, tensor.NewRNG(9))
	rc := shard.NewRequestCounter(3)
	rc.Observe(0, [][]int32{{7, 2}, {7, 5}, {2, 11}})
	svc := shard.New(shard.Config{
		Nodes: 3, CacheBytes: 0, RowBytes: dim * 4, Part: rc.HotAware(nil),
	}, nil)
	sb := ShardBag(tab, svc, 0)
	sh := sb.ShadowBag()
	for r := 0; r < rows; r++ {
		if &sb.RowView(r)[0] != &tab.W.Row(r)[0] {
			t.Fatalf("row %d of the bag is not the table's row", r)
		}
		if &sh.RowView(r)[0] != &tab.W.Row(r)[0] {
			t.Fatalf("row %d of the shadow is not the table's row", r)
		}
	}
}

// TestShardBagRejectsAnotherWidth: a table enters the service at the
// service's one row width (shard.Config.Dim); ShardBag panics on any other,
// naming both widths.
func TestShardBagRejectsAnotherWidth(t *testing.T) {
	svc := shardSvc(2, 0, 8)
	defer svc.Close()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "4 wide") || !strings.Contains(msg, "rows 8") {
			t.Fatalf("ShardBag of a dim-4 table on a dim-8 service: panic %q, want one naming both widths", msg)
		}
	}()
	ShardBag(NewTable(6, 4, tensor.NewRNG(1)), svc, 0)
}

func TestShardBagsPartitionsWholeModel(t *testing.T) {
	ts := NewTables([]int{10, 20, 30}, 4, tensor.NewRNG(5))
	svc := shardSvc(2, 16, 4)
	bags := make(Bags, len(ts))
	for i, tab := range ts.Clone() { // the bags take their tables over; ts stays the reference
		bags[i] = ShardBag(tab, svc, i)
	}
	if len(bags) != 3 {
		t.Fatalf("bags = %d", len(bags))
	}
	if !BagsEqual(ts.Bags(), bags) {
		t.Fatal("sharded bags must hold the source tables' weights")
	}
	if MaxAbsDiffBags(ts.Bags(), bags) != 0 {
		t.Fatal("max diff must be zero for identical weights")
	}
}
