package shard

import "testing"

// ins admits a 1-byte fp32-width entry: with uniform unit entries a byte
// budget of N behaves exactly like the old N-entry cache, so the legacy
// replacement-policy tests keep their shape.
func ins(c *DeviceCache, k uint64) (bool, int) { return c.Insert(k, WidthFP32, 1) }

func hit(c *DeviceCache, k uint64) bool { _, ok := c.Lookup(k); return ok }

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := newCache(2, PolicyLRU)
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
	if c.Len() != 2 || c.UsedBytes() != 2 {
		t.Fatalf("len %d used %d, want 2/2", c.Len(), c.UsedBytes())
	}
}

func TestSRRIPKeepsReReferencedEntries(t *testing.T) {
	c := newCache(4, PolicySRRIP)
	for k := uint64(1); k <= 4; k++ {
		ins(c, k)
	}
	// Promote 1 and 2 to near re-reference; scan keys 10..17 through.
	c.Lookup(1)
	c.Lookup(2)
	evicts := 0
	for k := uint64(10); k < 18; k++ {
		_, ev := ins(c, k)
		evicts += ev
	}
	// The re-referenced entries should have outlived at least the first
	// wave of scan insertions (scan resistance vs LRU, which would have
	// dropped everything).
	if evicts != 8 {
		t.Fatalf("evicts = %d want 8", evicts)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d want 4", c.Len())
	}
}

func TestZeroCapacityCacheAlwaysMisses(t *testing.T) {
	c := newCache(0, PolicyLRU)
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
	c := newCache(2, PolicyLRU)
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

func TestCacheReset(t *testing.T) {
	c := newCache(4, PolicySRRIP)
	for k := uint64(0); k < 8; k++ {
		ins(c, k)
	}
	c.Reset()
	if c.Len() != 0 || c.UsedBytes() != 0 || hit(c, 7) {
		t.Fatal("reset must clear contents")
	}
	ins(c, 42)
	if !c.Contains(42) {
		t.Fatal("cache must be usable after reset")
	}
}

// TestCacheHitMissCounters: Lookup reports a hit and a miss, and the
// Service counts each cache event once, in its Stats.
func TestCacheHitMissCounters(t *testing.T) {
	c := newCache(8, PolicyLRU)
	ins(c, 5)
	if !hit(c, 5) || hit(c, 6) {
		t.Fatal("Lookup must report 5 as a hit and 6 as a miss")
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
	fp32 := newCache(budget, PolicyLRU)
	i8 := newCache(budget, PolicyLRU)
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
	if fp32.UsedBytes() > budget || i8.UsedBytes() > budget {
		t.Fatalf("budget overrun: fp32 %d, int8 %d, budget %d", fp32.UsedBytes(), i8.UsedBytes(), budget)
	}
}

// TestWideInsertEvictsSeveralNarrow checks evict-until-fits accounting: one
// fp32 admission into a cache packed with int8 rows displaces several.
func TestWideInsertEvictsSeveralNarrow(t *testing.T) {
	const dim = 16
	budget := WidthINT8.RowBytes(dim) * 8 // 8 int8 rows, 160 bytes
	c := newCache(budget, PolicyLRU)
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
	if c.UsedBytes() > budget {
		t.Fatalf("used %d > budget %d after mixed-width eviction", c.UsedBytes(), budget)
	}
	if !c.Contains(100) {
		t.Fatal("wide entry must be admitted")
	}
}

// TestUnfittableEntryRefused: an entry wider than the whole budget is
// refused without evicting anything.
func TestUnfittableEntryRefused(t *testing.T) {
	c := newCache(16, PolicyLRU)
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
	c := newCache(WidthFP32.RowBytes(dim)*4, PolicyLRU)
	c.Insert(7, WidthINT8, WidthINT8.RowBytes(dim))
	before := c.UsedBytes()
	_, ev := c.Insert(7, WidthFP32, WidthFP32.RowBytes(dim))
	if c.Len() != 1 {
		t.Fatalf("len = %d want 1 after width change", c.Len())
	}
	if ev != 0 {
		t.Fatalf("width change counted %d evictions, want 0", ev)
	}
	if c.UsedBytes() == before {
		t.Fatal("usedBytes must track the new width")
	}
	if w, ok := c.Lookup(7); !ok || w != WidthFP32 {
		t.Fatalf("Lookup(7) = (%v, %v), want fp32 hit", w, ok)
	}
}

// TestLookupReportsWidthAndQuantHits: hits on narrow entries report their
// width, fp32 hits report fp32, and the Service counts a warm-tier hit once
// as a QuantHit.
func TestLookupReportsWidthAndQuantHits(t *testing.T) {
	c := newCache(1024, PolicyLRU)
	c.Insert(1, WidthFP32, 64)
	c.Insert(2, WidthINT8, 20)
	c.Insert(3, WidthFP16, 32)
	if w, ok := c.Lookup(2); !ok || w != WidthINT8 {
		t.Fatalf("Lookup(2) = (%v, %v)", w, ok)
	}
	if w, ok := c.Lookup(3); !ok || w != WidthFP16 {
		t.Fatalf("Lookup(3) = (%v, %v)", w, ok)
	}
	if w, ok := c.Lookup(1); !ok || w != WidthFP32 {
		t.Fatalf("Lookup(1) = (%v, %v)", w, ok)
	}

	s := register(New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: 64, Quant: QuantINT8}, nil), 2, 0)
	idx := [][]int32{{1}} // node 0 probes its cache for node 1's row
	s.RecordGather(0, idx)
	s.RecordGather(0, idx)
	if st := s.Snapshot(); st.QuantHits != 1 || st.CacheHits != 1 {
		t.Fatalf("quantHits=%d hits=%d, want 1/1", st.QuantHits, st.CacheHits)
	}
}

// TestSRRIPSweepSkipsRecycledSlots: mixed-width eviction leaves holes in the
// slot table; the CLOCK sweep must keep terminating and selecting victims.
func TestSRRIPSweepSkipsRecycledSlots(t *testing.T) {
	const dim = 16
	budget := WidthINT8.RowBytes(dim) * 12
	c := newCache(budget, PolicySRRIP)
	for k := uint64(0); k < 12; k++ {
		c.Insert(k, WidthINT8, WidthINT8.RowBytes(dim))
	}
	// Wide inserts punch multi-slot holes; follow with narrow refills.
	for round := uint64(0); round < 20; round++ {
		c.Insert(100+round, WidthFP32, WidthFP32.RowBytes(dim))
		c.Insert(200+round, WidthINT8, WidthINT8.RowBytes(dim))
	}
	if c.UsedBytes() > budget {
		t.Fatalf("used %d > budget %d", c.UsedBytes(), budget)
	}
	if c.Len() == 0 {
		t.Fatal("cache must still hold entries")
	}
	// Every resident key must still hit.
	hits := 0
	for k := uint64(0); k < 300; k++ {
		if c.Contains(k) {
			if !hit(c, k) {
				t.Fatalf("resident key %d must hit", k)
			}
			hits++
		}
	}
	if hits != c.Len() {
		t.Fatalf("resident sweep found %d keys, Len reports %d", hits, c.Len())
	}
}
