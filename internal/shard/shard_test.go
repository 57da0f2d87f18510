package shard

import "testing"

// mapClassifier marks an explicit set of rows hot.
type mapClassifier map[uint64]struct{}

func (m mapClassifier) IsHot(table int, row int32) bool {
	_, ok := m[key(table, row)]
	return ok
}

func hotSet(table int, rows ...int32) mapClassifier {
	m := make(mapClassifier)
	for _, r := range rows {
		m[key(table, r)] = struct{}{}
	}
	return m
}

func cfg(nodes int, cacheRows int) Config {
	return Config{Nodes: nodes, CacheBytes: int64(cacheRows) * 64, RowBytes: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Nodes: 0, RowBytes: 64}).Validate(); err == nil {
		t.Fatal("0 nodes must fail validation")
	}
	if err := (Config{Nodes: 2, RowBytes: 0}).Validate(); err == nil {
		t.Fatal("0 row bytes must fail validation")
	}
	if got := cfg(2, 8).CacheRows(); got != 8 {
		t.Fatalf("CacheRows = %d want 8", got)
	}
}

func TestSingleNodeIsAllLocal(t *testing.T) {
	s := New(cfg(1, 16), nil)
	s.RecordGather(0, [][]int32{{0, 1}, {2, 3}})
	s.RecordScatter(0, [][]int32{{0, 1}, {2, 3}})
	st := s.Snapshot()
	if st.Lookups != 4 || st.Local != 4 {
		t.Fatalf("single node: %+v", st)
	}
	if st.A2ABytes() != 0 || st.RemoteFrac() != 0 {
		t.Fatalf("single node must move no bytes: %+v", st)
	}
}

func TestOwnerAndNodeRoundRobin(t *testing.T) {
	s := New(cfg(4, 0), nil)
	for r := int32(0); r < 16; r++ {
		if s.Owner(0, r) != int(r)%4 {
			t.Fatalf("owner of row %d = %d", r, s.Owner(0, r))
		}
	}
	if s.NodeOf(5) != 1 || s.NodeOf(8) != 0 {
		t.Fatal("round-robin sample dealing broken")
	}
}

func TestGatherRoutesAndAccounts(t *testing.T) {
	// 2 nodes, cache big enough for everything, everything hot.
	s := New(cfg(2, 16), nil)
	// Batch position 0 -> node 0, position 1 -> node 1.
	// Row 0 owned by node 0, row 1 by node 1.
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	st := s.Snapshot()
	if st.Lookups != 4 || st.Local != 2 {
		t.Fatalf("lookups/local: %+v", st)
	}
	// Two remote accesses (node0->row1, node1->row0), both cold misses.
	if st.CacheMisses != 2 || st.CacheHits != 0 || st.GatherRows != 2 {
		t.Fatalf("first pass: %+v", st)
	}
	if st.GatherBytes != 2*64 || st.FillBytes != 2*64 {
		t.Fatalf("bytes: %+v", st)
	}
	// Second identical batch: remote rows were admitted, so both hit.
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	st = s.Snapshot()
	if st.CacheHits != 2 || st.GatherRows != 2 {
		t.Fatalf("second pass should hit the cache: %+v", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %g want 0.5", hr)
	}
}

func TestGatherDedupsWithinCall(t *testing.T) {
	// Cold (non-hot) row 1 accessed twice by node 0 in one call: one fetch.
	s := New(cfg(2, 16), hotSet(0)) // nothing hot
	s.RecordGather(0, [][]int32{{1, 1}})
	st := s.Snapshot()
	if st.CacheMisses != 2 || st.GatherRows != 1 {
		t.Fatalf("dedup: %+v", st)
	}
	// Not admitted (cold): a later call fetches again.
	s.RecordGather(0, [][]int32{{1}})
	if st = s.Snapshot(); st.GatherRows != 2 || st.FillBytes != 0 {
		t.Fatalf("cold row must not be cached: %+v", st)
	}
}

func TestScatterDedupsPerNode(t *testing.T) {
	s := New(cfg(2, 0), nil)
	// Positions 0 and 2 are node 0; both touch remote row 1 -> one message.
	// Position 1 (node 1) touches remote row 0 -> one message.
	s.RecordScatter(0, [][]int32{{1}, {0}, {1}})
	st := s.Snapshot()
	if st.ScatterRows != 2 || st.ScatterBytes != 2*64 {
		t.Fatalf("scatter: %+v", st)
	}
}

func TestPreloadFillsNonOwners(t *testing.T) {
	s := New(cfg(4, 8), nil)
	s.Preload(0, []int32{0, 1})
	st := s.Snapshot()
	// Each row replicates to 3 non-owner caches.
	if st.FillBytes != 6*64 {
		t.Fatalf("preload fill: %+v", st)
	}
	if occ := s.CacheOccupancy(); occ <= 0 {
		t.Fatal("preload must populate caches")
	}
	// Preloaded rows now hit.
	s.ResetStats()
	s.RecordGather(0, [][]int32{{1}}) // node 0, row 1 (owner node 1)
	if st = s.Snapshot(); st.CacheHits != 1 || st.GatherRows != 0 {
		t.Fatalf("preloaded row must hit: %+v", st)
	}
}

func TestResetStatsKeepsCacheState(t *testing.T) {
	s := New(cfg(2, 8), nil)
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	s.ResetStats()
	if st := s.Snapshot(); st.Lookups != 0 {
		t.Fatalf("reset must zero counters: %+v", st)
	}
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	if st := s.Snapshot(); st.CacheHits != 2 {
		t.Fatalf("cache contents must survive ResetStats: %+v", st)
	}
}

func TestStatsFractionsAndDeltas(t *testing.T) {
	s := New(cfg(2, 16), nil)
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	a := s.Snapshot()
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	b := s.Snapshot()
	d := b.Sub(a)
	if d.Lookups != 4 || d.CacheHits != 2 {
		t.Fatalf("delta: %+v", d)
	}
	if rf := b.RemoteFrac(); rf != 0.5 {
		t.Fatalf("remote frac = %g", rf)
	}
	if gf := b.GatherFrac(); gf != 0.25 {
		t.Fatalf("gather frac = %g", gf)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Identical access streams on identical services produce identical
	// counters and cache contents, including under a tight cache.
	run := func() Stats {
		s := New(Config{Nodes: 4, CacheBytes: 4 * 64, RowBytes: 64, Policy: PolicySRRIP}, nil)
		for i := 0; i < 50; i++ {
			idx := make([][]int32, 8)
			for b := range idx {
				idx[b] = []int32{int32((i*7 + b) % 64), int32((i*13 + 3*b) % 64)}
			}
			s.RecordGather(0, idx)
			s.RecordScatter(0, idx)
		}
		return s.Snapshot()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}
