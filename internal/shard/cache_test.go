package shard

import "testing"

// ins admits a 1-byte fp32-width entry: with uniform unit entries a byte
// budget of N holds exactly N entries.
func ins(c *DeviceCache, k uint64) bool { return c.admit(k, WidthFP32, 1) }

// probe is a walk's probe of one key: the index load. It reports the hit
// entry's width and whether key hit.
func probe(c *DeviceCache, k uint64) (Width, bool) {
	i := c.slotOf(k)
	if i < 0 {
		return WidthFP32, false
	}
	return c.slots[i].width, true
}

func hit(c *DeviceCache, k uint64) bool { _, ok := probe(c, k); return ok }

func TestZeroCapacityCacheAlwaysMisses(t *testing.T) {
	c := newCache(0)
	if ins(c, 1) {
		t.Fatal("zero-capacity insert must be a no-op")
	}
	if hit(c, 1) {
		t.Fatal("zero-capacity cache can never hit")
	}
	if c.Len() != 0 || c.Occupancy() != 0 {
		t.Fatalf("len=%d occ=%g", c.Len(), c.Occupancy())
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
		fp32.admit(k, WidthFP32, WidthFP32.RowBytes(dim))
		i8.admit(k, WidthINT8, WidthINT8.RowBytes(dim))
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

// TestWideAdmissionIsRefused: an admission that does not fit the free bytes
// is refused and displaces nothing — an fp32 row into a cache packed with
// int8 rows, and one into a cache whose free bytes hold a narrow row but not
// a wide one — while a narrow row that fits is still admitted.
func TestWideAdmissionIsRefused(t *testing.T) {
	const dim = 16
	budget := WidthINT8.RowBytes(dim) * 8 // 8 int8 rows, 160 bytes
	c := newCache(budget)
	for k := uint64(0); k < 7; k++ {
		if !c.admit(k, WidthINT8, WidthINT8.RowBytes(dim)) {
			t.Fatalf("int8 row %d must fit", k)
		}
	}
	// 20 bytes free: the 64-byte fp32 row does not fit, an int8 row does.
	if c.admit(100, WidthFP32, WidthFP32.RowBytes(dim)) {
		t.Fatal("a wide row must be refused when the free bytes are too few")
	}
	if !c.admit(7, WidthINT8, WidthINT8.RowBytes(dim)) {
		t.Fatal("a narrow row that fits the free bytes must be admitted")
	}
	if c.admit(101, WidthFP32, WidthFP32.RowBytes(dim)) {
		t.Fatal("a full cache must refuse a wide row")
	}
	if c.Len() != 8 || c.usedBytes != budget || c.Contains(100) || c.Contains(101) {
		t.Fatalf("len %d, used %d of %d: the refusals changed the cache", c.Len(), c.usedBytes, budget)
	}
	for k := uint64(0); k < 8; k++ {
		if !c.Contains(k) {
			t.Fatalf("int8 row %d was displaced", k)
		}
	}
}

// TestUnfittableEntryRefused: an entry wider than the whole budget is
// refused without evicting anything.
func TestUnfittableEntryRefused(t *testing.T) {
	c := newCache(16)
	ins(c, 1)
	if c.admit(2, WidthFP32, 64) {
		t.Fatal("unfittable insert admitted, want refusal")
	}
	if !c.Contains(1) {
		t.Fatal("refused insert must not disturb residents")
	}
}

// TestLookupReportsWidthAndQuantHits: hits on narrow entries report their
// width, fp32 hits report fp32, and the Service counts a warm-tier hit once
// as a QuantHit.
func TestLookupReportsWidthAndQuantHits(t *testing.T) {
	c := newCache(1024)
	c.admit(1, WidthFP32, 64)
	c.admit(2, WidthINT8, 20)
	c.admit(3, WidthFP16, 32)
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
