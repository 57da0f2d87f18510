package shard

import (
	"testing"

	"hotline/internal/tensor"
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

// TestDeviceCacheResetZeroAlloc gates the Reset fix: reset-heavy
// measurement loops must not reallocate the index or the slot table.
func TestDeviceCacheResetZeroAlloc(t *testing.T) {
	c := newCache(64, PolicyLRU)
	for k := uint64(0); k < 64; k++ {
		c.Insert(k, WidthFP32, 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Reset()
		c.Insert(1, WidthFP32, 1)
		c.Insert(2, WidthFP32, 1)
	}); n != 0 {
		t.Fatalf("Reset+refill allocates %v/op; want 0", n)
	}
	c.Reset()
	if c.Len() != 0 || c.Contains(1) {
		t.Fatal("Reset must drop contents")
	}
	if c.UsedBytes() != 0 {
		t.Fatal("Reset must free every byte")
	}
	// The cache must still behave after an in-place reset.
	c.Insert(7, WidthFP32, 1)
	_, hit7 := c.Lookup(7)
	_, hit8 := c.Lookup(8)
	if !hit7 || hit8 {
		t.Fatal("cache broken after Reset")
	}
}

// TestServeGatherAccounting covers the read-path counters: serve traffic
// lands in ServeSnapshot (never the training snapshot), warms the shared
// caches, and has no scatter side.
func TestServeGatherAccounting(t *testing.T) {
	s := register(New(cfg(2, 8), nil), 2, 0)
	s.RecordServeGather(0, [][]int32{{0, 1}, {0, 1}})

	if st := s.Snapshot(); st.Lookups != 0 {
		t.Fatalf("serve traffic leaked into the training snapshot: %+v", st)
	}
	sv := s.ServeSnapshot()
	if sv.Lookups != 4 || sv.Local != 2 || sv.GatherRows != 2 {
		t.Fatalf("serve snapshot: %+v", sv)
	}
	if sv.ScatterRows != 0 || sv.ScatterBytes != 0 {
		t.Fatalf("read path must never scatter: %+v", sv)
	}

	// Serve traffic warmed the shared caches: the same rows now hit, on
	// both the serve path and the training path.
	s.RecordServeGather(0, [][]int32{{0, 1}, {0, 1}})
	if sv = s.ServeSnapshot(); sv.CacheHits != 2 {
		t.Fatalf("serve re-access must hit the warmed cache: %+v", sv)
	}
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	if st := s.Snapshot(); st.CacheHits != 2 {
		t.Fatalf("training must see serve-warmed caches: %+v", st)
	}

	countEverything(t, s)
	train := s.Snapshot()
	s.ResetServeStats()
	if sv = s.ServeSnapshot(); sv != (Stats{Nodes: 2}) {
		t.Fatalf("ResetServeStats must zero serve counters: %+v", sv)
	}
	if st := s.Snapshot(); st != train {
		t.Fatalf("ResetServeStats must keep training counters:\n got %+v\nwant %+v", st, train)
	}
	if sv.Nodes != 2 {
		// Nodes is stamped on snapshot like the training side.
		sv = s.ServeSnapshot()
		if sv.Nodes != 2 {
			t.Fatalf("serve snapshot nodes = %d", sv.Nodes)
		}
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

// ruleHot classifies rows by a rule, asked through IsHot only.
type ruleHot func(row int32) bool

func (h ruleHot) IsHot(_ int, row int32) bool { return h(row) }

// bitsHot is the same rule with its verdicts on the first rows laid out as a
// hot bitmap (HotBitmap); it records the rows IsHot is asked about.
type bitsHot struct {
	rule  ruleHot
	bits  []uint64
	asked []int32
}

func (h *bitsHot) IsHot(table int, row int32) bool {
	h.asked = append(h.asked, row)
	return h.rule.IsHot(table, row)
}

func (h *bitsHot) HotBits(int) []uint64 { return h.bits }

// TestWalkReadsTheHotBitmap: the gather walk reads a classifier's hot bitmap
// inline and asks IsHot only about rows past it, and it counts, stages and
// admits exactly what the same classifier does without the bitmap — under
// the tiered mode, whose hits ask the classifier too, with evicting caches.
func TestWalkReadsTheHotBitmap(t *testing.T) {
	const rows, covered, dim = 512, 256, 8
	rule := ruleHot(func(row int32) bool { return row%3 == 0 })
	bits := &bitsHot{rule: rule, bits: make([]uint64, covered/64)}
	for r := int32(0); r < covered; r++ {
		if rule(r) {
			bits.bits[r>>6] |= 1 << (r & 63)
		}
	}
	svc := func(hot HotClassifier) *Service {
		s := New(Config{Nodes: 4, CacheBytes: 24 * dim * 4, RowBytes: dim * 4, Quant: QuantMixed}, hot)
		t.Cleanup(func() { s.Close() })
		s.RegisterTable(0, rows, flatRows(rows, dim))
		return s
	}
	withBits, without := svc(bits), svc(rule)
	rng := tensor.NewRNG(5)
	for range 40 {
		idx := make([][]int32, 32)
		for b := range idx {
			idx[b] = make([]int32, 1+rng.Intn(4))
			for j := range idx[b] {
				idx[b][j] = int32(rng.Intn(rows))
			}
		}
		w1, w2 := withBits.PlanGather(0, idx), without.PlanGather(0, idx)
		if (w1 == nil) != (w2 == nil) || w1 != nil && (w1.Rows() != w2.Rows() || len(w1.quant) != len(w2.quant)) {
			t.Fatalf("the bitmap walk staged a different window")
		}
		if w1 != nil {
			w1.Release()
			w2.Release()
		}
	}
	got, want := withBits.Snapshot().WithoutWall(), without.Snapshot().WithoutWall()
	if got != want {
		t.Fatalf("counts with the hot bitmap %+v, with IsHot alone %+v", got, want)
	}
	if got.Evictions == 0 || got.QuantHits == 0 {
		t.Fatalf("the walks never evicted (%d) or hit the warm tier (%d)", got.Evictions, got.QuantHits)
	}
	if withBits.CacheEntries() != without.CacheEntries() {
		t.Fatalf("caches hold %d entries with the bitmap, %d without", withBits.CacheEntries(), without.CacheEntries())
	}
	if len(bits.asked) == 0 {
		t.Fatal("no row past the bitmap was asked about")
	}
	for _, r := range bits.asked {
		if r < covered {
			t.Fatalf("IsHot asked about row %d, inside the bitmap", r)
		}
	}
}
