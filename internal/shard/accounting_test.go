package shard

import (
	"slices"
	"sync"
	"testing"

	"hotline/internal/tensor"
)

// TestPreloadRepeatedNoDoubleCount is the regression test for the fill
// double-count: swapping to the set already installed finds every row
// resident and moves no bytes, so FillBytes counts actual admissions only.
func TestPreloadRepeatedNoDoubleCount(t *testing.T) {
	s := register(New(cfg(4, 8), nil), 3, 0)
	s.Relearn(ranked{rows: []int32{0, 1}})
	first := s.Snapshot().FillBytes
	if want := int64(6 * 64); first != want { // 2 rows x 3 non-owner caches
		t.Fatalf("first preload fill = %d want %d", first, want)
	}
	// The regression: a second identical preload used to double the fill
	// traffic even though every row was already resident.
	s.Relearn(ranked{rows: []int32{0, 1}})
	if again := s.Snapshot().FillBytes; again != first {
		t.Fatalf("repeated preload must not re-account fill: %d -> %d", first, again)
	}
	// A genuinely new row still pays its replication traffic.
	s.Relearn(ranked{rows: []int32{0, 1, 2}})
	if st := s.Snapshot(); st.FillBytes != first+3*64 || st.Evictions != 0 {
		t.Fatalf("new row fill: %+v", st)
	}
}

// TestRelearnSwapsTheHotSet: a swap removes the cached rows that left the
// hot set, counting each, admits the rows that came in, counting their
// bytes, and a swap to the installed set moves nothing. Two nodes with
// 4-row caches: node 0 caches the odd rows it does not own, node 1 the even.
func TestRelearnSwapsTheHotSet(t *testing.T) {
	s := register(New(cfg(2, 4), nil), 8, 0)
	s.Relearn(ranked{rows: []int32{1, 2, 3}})
	if st := s.Snapshot(); st.FillBytes != 3*64 || st.Evictions != 0 || s.CacheEntries() != 3 {
		t.Fatalf("install: %+v, %d entries", st, s.CacheEntries())
	}
	s.ResetStats()
	s.Relearn(ranked{rows: []int32{1, 2, 3}})
	if st := s.Snapshot(); st != (Stats{Nodes: 2}) || s.CacheEntries() != 3 {
		t.Fatalf("a swap to the same set moved %+v, %d entries", st, s.CacheEntries())
	}
	// Row 1 leaves and row 5 comes in, both on node 0.
	s.Relearn(ranked{rows: []int32{2, 3, 5}})
	if st := s.Snapshot(); st.Evictions != 1 || st.FillBytes != 64 {
		t.Fatalf("swap: evictions %d fill %d, want 1 and 64", st.Evictions, st.FillBytes)
	}
	c := s.caches[0]
	if c.Contains(key(0, 1)) || !c.Contains(key(0, 3)) || !c.Contains(key(0, 5)) || !s.caches[1].Contains(key(0, 2)) {
		t.Fatal("the swap left the wrong rows cached")
	}
	// A training miss on the row that left is not admitted again: under
	// QuantOff a cold row never enters.
	s.ResetStats()
	s.RecordGather(0, [][]int32{{1, 3, 5}})
	if st := s.Snapshot(); st.CacheHits != 2 || st.CacheMisses != 1 || st.FillBytes != 0 || c.Contains(key(0, 1)) {
		t.Fatalf("walk after the swap: %+v", st)
	}
}

// TestRelearnBesideTheWalks: swaps run while training and serve walks plan
// on other goroutines (run it under -race): every walk reads one installed
// set whole, so after the last swap every entry has the width that set gives
// its row, and the hot rows are cached as a swap on a quiet service caches
// them.
func TestRelearnBesideTheWalks(t *testing.T) {
	const rows = 64
	sets := []ranked{{rows: []int32{1, 3, 5, 7, 9}}, {rows: []int32{9, 11, 13, 2, 4}}}
	s := register(New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: 64, Quant: QuantMixed}, nil), rows, 0)
	defer s.Close()
	idx := make([][]int32, 16)
	for b := range idx {
		idx[b] = []int32{int32(b), int32(b + 16), int32(b * 3 % rows)}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, serve := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				plan := s.PlanGather
				if serve {
					plan = s.PlanServeGather
				}
				if w := plan(0, idx); w != nil {
					w.Release()
				}
			}
		}()
	}
	for i := range 200 {
		s.Relearn(sets[i%2])
	}
	close(stop)
	wg.Wait()

	// The last swap installed sets[1], and every entry is at the width that
	// set gives its row: no walk admitted a row at the width of a set it did
	// not read whole. The budget holds every row the walks touch, so the
	// hot rows are cached as on a quiet service that only swapped.
	hot := sets[1].HotBits(0)
	for n, c := range s.caches {
		for _, e := range c.slots {
			if e.bytes == 0 {
				continue
			}
			if w, _ := QuantMixed.admit(hotBit(hot, int32(uint32(e.key)))); w != e.width {
				t.Errorf("node %d caches row %d at %v, the installed set gives %v", n, uint32(e.key), e.width, w)
			}
		}
	}
	quiet := register(New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: 64, Quant: QuantMixed}, nil), rows, 0)
	defer quiet.Close()
	quiet.Relearn(sets[1])
	for n := range s.caches {
		for _, r := range sets[1].rows {
			if got, want := s.caches[n].Contains(key(0, r)), quiet.caches[n].Contains(key(0, r)); got != want {
				t.Errorf("node %d row %d cached %v after the swaps beside walks, %v on a quiet service", n, r, got, want)
			}
		}
	}
}

// TestWidthChangeReadmits: under QuantMixed a swap that turns a cached warm
// row hot removes its int8 entry, counting the removal, and admits it at
// fp32, counting the fill; the next hit is served exact. A window planned
// before the swap keeps the width it was staged at, so its value is still the
// int8 round trip.
func TestWidthChangeReadmits(t *testing.T) {
	const dim = 16
	qt := quantTable{dim: dim}
	s := New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: dim * 4, Quant: QuantMixed}, hotSet())
	defer s.Close()
	s.RegisterTable(0, 8, qt.row)
	idx := [][]int32{{1}}  // batch position 0 = node 0; row 1 owned by node 1
	s.RecordGather(0, idx) // admits the cold row into the warm tier
	inflight := s.PlanGather(0, idx)
	if inflight == nil {
		t.Fatal("the warm hit must stage row 1")
	}
	s.ResetStats()
	s.Relearn(ranked{rows: []int32{1}})
	if st := s.Snapshot(); st.Evictions != 1 || st.FillBytes != WidthFP32.RowBytes(dim) {
		t.Fatalf("re-tier: evictions %d fill %d, want 1 and %d", st.Evictions, st.FillBytes, WidthFP32.RowBytes(dim))
	}
	if w, ok := probe(s.caches[0], key(0, 1)); !ok || w != WidthFP32 {
		t.Fatalf("row 1 cached as (%v, %v), want fp32", w, ok)
	}

	s.Gatherer().GatherSync(inflight)
	if w := inflight.Width(1); w != WidthINT8 {
		t.Fatalf("the in-flight window served row 1 at %v, want int8", w)
	}
	v, _ := inflight.Lookup(1)
	want := make([]float32, dim)
	tensor.RoundTripI8(want, qt.row(1))
	if !slices.Equal(v, want) {
		t.Fatalf("the in-flight window's row 1 = %v, want its int8 round trip %v", v, want)
	}
	inflight.Release()

	s.ResetStats()
	if w := s.PlanGather(0, idx); w != nil {
		t.Fatalf("an fp32 hit staged %d rows", w.Rows())
	}
	if st := s.Snapshot(); st.CacheHits != 1 || st.QuantHits != 0 {
		t.Fatalf("the re-tiered row must hit exact: %+v", st)
	}
}

// TestRelearnKeepsTheHeadOfTheList: a swap admits the hot rows in rank
// order, so a cache too small for the set keeps the most popular rows it does
// not own, whatever their row ids. Two nodes with 3-row caches get eleven
// rows: node 0 (owner of the even rows) keeps the first three odd ones, node
// 1 the first three even ones.
func TestRelearnKeepsTheHeadOfTheList(t *testing.T) {
	s := register(New(cfg(2, 3), nil), 12, 0)
	defer s.Close()
	s.Relearn(ranked{rows: []int32{9, 4, 1, 10, 7, 2, 11, 6, 3, 8, 5}})
	for n, want := range [][]int32{{1, 7, 9}, {2, 4, 10}} {
		var kept []int32
		for r := int32(0); r < 12; r++ {
			if s.caches[n].Contains(key(0, r)) {
				kept = append(kept, r)
			}
		}
		if !slices.Equal(kept, want) {
			t.Errorf("node %d's cache keeps rows %v, want %v", n, kept, want)
		}
	}
}

// TestServeGatherAccounting covers the read-path counters: serve traffic
// lands in ServeSnapshot (never the training snapshot), has no scatter side,
// and reads the shared caches without writing them — a serve walk leaves
// every cache's entries exactly as it found them.
func TestServeGatherAccounting(t *testing.T) {
	t.Run("counters", serveGatherCounters)
	t.Run("contents", serveWalkLeavesContents)
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

// serveWalkLeavesContents: a serve walk admits nothing and removes nothing.
// Node 0's two-row cache is full with rows 1 and 3; a serve walk hits row 1
// and misses row 5. The cache's contents are unchanged, and a twin service
// that never served counts exactly the same training walks after it.
func serveWalkLeavesContents(t *testing.T) {
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
		s.RecordGather(0, [][]int32{{5}}) // the full cache refuses 5
		s.RecordGather(0, [][]int32{{3}})
		s.RecordGather(0, [][]int32{{1}})
	}
	st := served.Snapshot()
	if st.Evictions != 0 || st.FillBytes != 0 || st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("training after a serve walk: %+v", st)
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
