package shard

import "testing"

// ins admits a 1-byte fp32-width entry: with uniform unit entries a byte
// budget of N behaves exactly like the old N-entry cache, so the legacy
// replacement-policy tests keep their shape.
func ins(c *DeviceCache, k uint64) (bool, int) { return c.Insert(k, WidthFP32, 1) }

// probe is a walk's probe of one key: the index load and, on a hit, a use.
// It reports the hit entry's width and whether key hit.
func probe(c *DeviceCache, k uint64) (Width, bool) {
	i := c.slotOf(k)
	if i < 0 {
		return WidthFP32, false
	}
	c.use(i)
	return c.slots[i].width, true
}

func hit(c *DeviceCache, k uint64) bool { _, ok := probe(c, k); return ok }

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newCache(2)
	ins(c, 1)
	ins(c, 2)
	if !hit(c, 1) { // 1 becomes most recent
		t.Fatal("1 must be cached")
	}
	if _, ev := ins(c, 3); ev != 1 {
		t.Fatalf("full cache must evict once, evicted %d", ev)
	}
	if c.Contains(2) {
		t.Fatal("LRU victim must be 2")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("1 and 3 must survive")
	}
	if c.Len() != 2 || c.usedBytes != 2 {
		t.Fatalf("len %d used %d, want 2/2", c.Len(), c.usedBytes)
	}
}

func TestZeroCapacityCacheAlwaysMisses(t *testing.T) {
	c := newCache(0)
	if ok, _ := ins(c, 1); ok {
		t.Fatal("zero-capacity insert must be a no-op")
	}
	if hit(c, 1) {
		t.Fatal("zero-capacity cache can never hit")
	}
	if c.Len() != 0 || c.Occupancy() != 0 {
		t.Fatalf("len=%d occ=%g", c.Len(), c.Occupancy())
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := newCache(2)
	ins(c, 1)
	ins(c, 2)
	ins(c, 1) // refresh, not duplicate
	if c.Len() != 2 {
		t.Fatalf("len = %d want 2", c.Len())
	}
	ins(c, 3) // evicts 2 (1 was refreshed)
	if c.Contains(2) || !c.Contains(1) {
		t.Fatal("refresh must update recency")
	}
}

// TestCacheHitMissCounters: a probe reports a hit and a miss, and the
// Service counts each cache event once, in its Stats.
func TestCacheHitMissCounters(t *testing.T) {
	c := newCache(8)
	ins(c, 5)
	if !hit(c, 5) || hit(c, 6) {
		t.Fatal("a probe must report 5 as a hit and 6 as a miss")
	}

	s := register(New(cfg(2, 8), nil), 2, 0)
	idx := [][]int32{{1}} // node 0 probes its cache for node 1's row
	s.RecordGather(0, idx)
	s.RecordGather(0, idx)
	if st := s.Snapshot(); st.CacheHits != 1 || st.CacheMisses != 1 || st.Evictions != 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 1/1/0", st.CacheHits, st.CacheMisses, st.Evictions)
	}
}

// TestByteBudgetHoldsMoreNarrowRows is the satellite-1 regression: at the
// same byte budget an int8 warm tier holds >= 2x the fp32 row count, and
// Occupancy keeps byte semantics regardless of the entry mix — both caches
// fill to ~1.0 even though one holds twice the rows.
func TestByteBudgetHoldsMoreNarrowRows(t *testing.T) {
	const dim = 32
	budget := WidthFP32.RowBytes(dim) * 64 // exactly 64 fp32 rows
	fp32 := newCache(budget)
	i8 := newCache(budget)
	for k := uint64(0); k < 10_000; k++ {
		fp32.Insert(k, WidthFP32, WidthFP32.RowBytes(dim))
		i8.Insert(k, WidthINT8, WidthINT8.RowBytes(dim))
	}
	if fp32.Len() != 64 {
		t.Fatalf("fp32 rows held = %d, want 64", fp32.Len())
	}
	if i8.Len() < 2*fp32.Len() {
		t.Fatalf("int8 cache holds %d rows at the budget that holds %d fp32 rows; want >= 2x", i8.Len(), fp32.Len())
	}
	if fp32.Occupancy() != 1 {
		t.Fatalf("full fp32 cache occupancy = %g, want 1", fp32.Occupancy())
	}
	if occ := i8.Occupancy(); occ < 0.95 || occ > 1 {
		t.Fatalf("full int8 cache occupancy = %g, want ~1 (same byte semantics)", occ)
	}
	if fp32.usedBytes > budget || i8.usedBytes > budget {
		t.Fatalf("budget overrun: fp32 %d, int8 %d, budget %d", fp32.usedBytes, i8.usedBytes, budget)
	}
}

// TestWideInsertEvictsSeveralNarrow checks evict-until-fits accounting: one
// fp32 admission into a cache packed with int8 rows displaces several.
func TestWideInsertEvictsSeveralNarrow(t *testing.T) {
	const dim = 16
	budget := WidthINT8.RowBytes(dim) * 8 // 8 int8 rows, 160 bytes
	c := newCache(budget)
	for k := uint64(0); k < 8; k++ {
		c.Insert(k, WidthINT8, WidthINT8.RowBytes(dim))
	}
	_, ev := c.Insert(100, WidthFP32, WidthFP32.RowBytes(dim)) // 64 bytes > 3 int8 rows
	if ev < 2 {
		t.Fatalf("wide insert evicted %d narrow rows, want >= 2", ev)
	}
	if c.Len() != 8-ev+1 {
		t.Fatalf("len %d after %d evictions from 8 rows and one admission", c.Len(), ev)
	}
	if c.usedBytes > budget {
		t.Fatalf("used %d > budget %d after mixed-width eviction", c.usedBytes, budget)
	}
	if !c.Contains(100) {
		t.Fatal("wide entry must be admitted")
	}
}

// TestUnfittableEntryRefused: an entry wider than the whole budget is
// refused without evicting anything.
func TestUnfittableEntryRefused(t *testing.T) {
	c := newCache(16)
	ins(c, 1)
	if ok, ev := c.Insert(2, WidthFP32, 64); ok || ev != 0 {
		t.Fatalf("unfittable insert: admitted=%v evictions=%d, want refusal", ok, ev)
	}
	if !c.Contains(1) {
		t.Fatal("refused insert must not disturb residents")
	}
}

// TestWidthChangeReadmits: re-inserting a resident key at a different width
// replaces the entry (new width served on the next hit) without counting the
// replacement as an eviction.
func TestWidthChangeReadmits(t *testing.T) {
	const dim = 8
	c := newCache(WidthFP32.RowBytes(dim) * 4)
	c.Insert(7, WidthINT8, WidthINT8.RowBytes(dim))
	before := c.usedBytes
	_, ev := c.Insert(7, WidthFP32, WidthFP32.RowBytes(dim))
	if c.Len() != 1 {
		t.Fatalf("len = %d want 1 after width change", c.Len())
	}
	if ev != 0 {
		t.Fatalf("width change counted %d evictions, want 0", ev)
	}
	if c.usedBytes == before {
		t.Fatal("usedBytes must track the new width")
	}
	if w, ok := probe(c, 7); !ok || w != WidthFP32 {
		t.Fatalf("probe(7) = (%v, %v), want fp32 hit", w, ok)
	}
}

// TestLookupReportsWidthAndQuantHits: hits on narrow entries report their
// width, fp32 hits report fp32, and the Service counts a warm-tier hit once
// as a QuantHit.
func TestLookupReportsWidthAndQuantHits(t *testing.T) {
	c := newCache(1024)
	c.Insert(1, WidthFP32, 64)
	c.Insert(2, WidthINT8, 20)
	c.Insert(3, WidthFP16, 32)
	if w, ok := probe(c, 2); !ok || w != WidthINT8 {
		t.Fatalf("probe(2) = (%v, %v)", w, ok)
	}
	if w, ok := probe(c, 3); !ok || w != WidthFP16 {
		t.Fatalf("probe(3) = (%v, %v)", w, ok)
	}
	if w, ok := probe(c, 1); !ok || w != WidthFP32 {
		t.Fatalf("probe(1) = (%v, %v)", w, ok)
	}

	s := register(New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: 64, Quant: QuantINT8}, nil), 2, 0)
	idx := [][]int32{{1}} // node 0 probes its cache for node 1's row
	s.RecordGather(0, idx)
	s.RecordGather(0, idx)
	if st := s.Snapshot(); st.QuantHits != 1 || st.CacheHits != 1 {
		t.Fatalf("quantHits=%d hits=%d, want 1/1", st.QuantHits, st.CacheHits)
	}
}
