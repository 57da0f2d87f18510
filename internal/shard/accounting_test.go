package shard

import (
	"slices"
	"testing"
)

// TestPreloadRepeatedNoDoubleCount is the regression test for the fill
// double-count: re-preloading rows that are already resident refreshes
// their replacement state but moves no bytes, so FillBytes must count
// actual admissions only.
func TestPreloadRepeatedNoDoubleCount(t *testing.T) {
	s := register(New(cfg(4, 8), nil), 3, 0)
	s.Preload(0, []int32{0, 1})
	first := s.Snapshot().FillBytes
	if want := int64(6 * 64); first != want { // 2 rows x 3 non-owner caches
		t.Fatalf("first preload fill = %d want %d", first, want)
	}
	// The regression: a second identical preload used to double the fill
	// traffic even though every row was already resident.
	s.Preload(0, []int32{0, 1})
	if again := s.Snapshot().FillBytes; again != first {
		t.Fatalf("repeated preload must not re-account fill: %d -> %d", first, again)
	}
	// A genuinely new row still pays its replication traffic.
	s.Preload(0, []int32{2})
	if st := s.Snapshot(); st.FillBytes != first+3*64 {
		t.Fatalf("new row fill: %+v", st)
	}
}

// TestPreloadRefreshKeepsRecency checks the refresh half of the fix: the
// repeated preload still touches replacement state (the row stays at the
// recency front) even though it accounts nothing.
func TestPreloadRefreshKeepsRecency(t *testing.T) {
	s := register(New(cfg(2, 2), nil), 6, 0) // 2-row caches on 2 nodes
	// Node 0's cache (non-owner of odd rows under round-robin): preload
	// rows 1 and 3, refresh 1, then preload 5 — LRU must evict 3, not 1.
	s.Preload(0, []int32{1, 3})
	s.Preload(0, []int32{1})
	s.Preload(0, []int32{5})
	s.ResetStats()
	s.RecordGather(0, [][]int32{{1}}) // node 0 probes row 1
	if st := s.Snapshot(); st.CacheHits != 1 {
		t.Fatalf("refreshed row must survive the eviction: %+v", st)
	}
}

// TestPreloadKeepsTheLatestSuffix: Preload admits rows in the order given,
// so a bounded cache keeps the most recently preloaded rows it does not own.
// Two nodes with 3-row caches get rows 1…11: node 0 (owner of the even rows)
// keeps 7, 9 and 11, node 1 keeps 6, 8 and 10.
func TestPreloadKeepsTheLatestSuffix(t *testing.T) {
	s := register(New(cfg(2, 3), nil), 12, 0)
	defer s.Close()
	var rows []int32
	for r := int32(1); r <= 11; r++ {
		rows = append(rows, r)
	}
	s.Preload(0, rows)
	for n, want := range [][]int32{{7, 9, 11}, {6, 8, 10}} {
		var kept []int32
		for r := int32(0); r < 12; r++ {
			if s.caches[n].Contains(key(0, r)) {
				kept = append(kept, r)
			}
		}
		if !slices.Equal(kept, want) {
			t.Errorf("node %d's cache keeps rows %v after preloading 1…11, want %v", n, kept, want)
		}
	}
}

// TestServeGatherAccounting covers the read-path counters: serve traffic
// lands in ServeSnapshot (never the training snapshot), has no scatter side,
// and reads the shared caches without writing them — a serve walk leaves
// every cache's entries and LRU victim order exactly as it found them.
func TestServeGatherAccounting(t *testing.T) {
	t.Run("counters", serveGatherCounters)
	t.Run("victim-order", serveWalkLeavesVictimOrder)
}

func serveGatherCounters(t *testing.T) {
	s := register(New(cfg(2, 8), nil), 2, 0)
	s.RecordServeGather(0, [][]int32{{0, 1}, {0, 1}})

	if st := s.Snapshot(); st.Lookups != 0 {
		t.Fatalf("serve traffic leaked into the training snapshot: %+v", st)
	}
	sv := s.ServeSnapshot()
	if sv.Lookups != 4 || sv.Local != 2 || sv.CacheMisses != 2 || sv.GatherRows != 2 {
		t.Fatalf("serve snapshot: %+v", sv)
	}
	if sv.ScatterRows != 0 || sv.ScatterBytes != 0 {
		t.Fatalf("read path must never scatter: %+v", sv)
	}
	if sv.FillBytes != 0 || sv.Evictions != 0 || s.CacheEntries() != 0 {
		t.Fatalf("a serve miss must admit nothing: %+v, %d entries", sv, s.CacheEntries())
	}

	// The caches stayed cold: a second serve walk misses again, and so does
	// training.
	s.RecordServeGather(0, [][]int32{{0, 1}, {0, 1}})
	if sv = s.ServeSnapshot(); sv.CacheHits != 0 || sv.CacheMisses != 4 {
		t.Fatalf("serve re-access must miss the unwritten caches: %+v", sv)
	}
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	if st := s.Snapshot(); st.CacheMisses != 2 || st.CacheHits != 0 {
		t.Fatalf("training must not see serve-admitted rows: %+v", st)
	}
	// Training admitted them; now serve hits what training warmed.
	s.RecordServeGather(0, [][]int32{{0, 1}, {0, 1}})
	if sv = s.ServeSnapshot(); sv.CacheHits != 2 {
		t.Fatalf("serve must hit the training-warmed caches: %+v", sv)
	}
}

// serveWalkLeavesVictimOrder: a serve hit moves no recency and a serve miss
// evicts nothing. Node 0's two-row LRU cache holds rows 1 (oldest) and 3; a
// serve walk hits row 1 and misses row 5. The next training admission must
// still evict row 1 — had the serve hit been a use, it would evict 3 — and a
// twin service that never served must count exactly the same.
func serveWalkLeavesVictimOrder(t *testing.T) {
	warm := [][]int32{{1, 3}} // position 0 is node 0; odd rows are node 1's
	served, twin := register(New(cfg(2, 2), nil), 6, 0), register(New(cfg(2, 2), nil), 6, 0)
	for _, s := range []*Service{served, twin} {
		s.RecordGather(0, warm)
	}
	served.RecordServeGather(0, [][]int32{{1, 5}})
	if sv := served.ServeSnapshot(); sv.CacheHits != 1 || sv.CacheMisses != 1 || sv.GatherRows != 1 {
		t.Fatalf("serve walk counts: %+v", sv)
	}
	if c := served.caches[0]; c.Len() != 2 || !c.Contains(key(0, 1)) || !c.Contains(key(0, 3)) || c.Contains(key(0, 5)) {
		t.Fatal("the serve walk changed node 0's entries")
	}
	for _, s := range []*Service{served, twin} {
		s.ResetStats()
		s.RecordGather(0, [][]int32{{5}}) // admits 5, evicting the LRU victim
		s.RecordGather(0, [][]int32{{3}})
		s.RecordGather(0, [][]int32{{1}})
	}
	st := served.Snapshot()
	if st.Evictions != 2 || st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("row 1 must stay the victim after a serve hit on it: %+v", st)
	}
	if tw := twin.Snapshot(); st != tw {
		t.Fatalf("serving moved the training counts:\n got %+v\nwant %+v", st, tw)
	}
}

// TestServeGatherSingleNode: the single-node serve path is all-local.
func TestServeGatherSingleNode(t *testing.T) {
	s := register(New(cfg(1, 8), nil), 3, 0)
	s.RecordServeGather(0, [][]int32{{0, 1, 2}})
	sv := s.ServeSnapshot()
	if sv.Lookups != 3 || sv.Local != 3 || sv.GatherRows != 0 {
		t.Fatalf("single-node serve: %+v", sv)
	}
}
