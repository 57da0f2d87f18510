package shard

import (
	"reflect"
	"testing"
	"time"
)

// hotBitmap is a HotClassifier over table 0, laid out as embedding.Placement
// keeps its hot set: bit r&63 of word r>>6 marks row r.
type hotBitmap []uint64

func (h hotBitmap) HotBits(table int) []uint64 {
	if table != 0 {
		return nil
	}
	return h
}

// hotSet marks rows of table 0 hot; with none, every row is cold.
func hotSet(rows ...int32) hotBitmap {
	var h hotBitmap
	for _, r := range rows {
		if w := int(r >> 6); w >= len(h) {
			h = append(h, make(hotBitmap, w+1-len(h))...)
		}
		h[r>>6] |= 1 << (r & 63)
	}
	return h
}

func cfg(nodes int, cacheRows int) Config {
	return Config{Nodes: nodes, CacheBytes: int64(cacheRows) * 64, RowBytes: 64}
}

// register registers each of tables on s at rows rows with no row view — the
// accounting tests walk tables but fill no window — and returns s.
func register(s *Service, rows int, tables ...int) *Service {
	for _, tb := range tables {
		s.RegisterTable(tb, rows, nil)
	}
	return s
}

// newCache is NewDeviceCache with table 0's index sized, as the Service sizes
// a registered table's, for the rows the cache tests key (below 10 000).
func newCache(capBytes int64) *DeviceCache {
	c := NewDeviceCache(capBytes)
	c.SizeTable(0, 10_000)
	return c
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
	s := register(New(cfg(1, 16), nil), 4, 0)
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
	s := register(New(cfg(4, 0), nil), 16, 0)
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
	s := register(New(cfg(2, 16), nil), 2, 0)
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
	s := register(New(cfg(2, 16), hotSet()), 2, 0) // nothing hot
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
	s := register(New(cfg(2, 0), nil), 2, 0)
	// Positions 0 and 2 are node 0; both touch remote row 1 -> one message.
	// Position 1 (node 1) touches remote row 0 -> one message.
	s.RecordScatter(0, [][]int32{{1}, {0}, {1}})
	st := s.Snapshot()
	if st.ScatterRows != 2 || st.ScatterBytes != 2*64 {
		t.Fatalf("scatter: %+v", st)
	}
}

func TestPreloadFillsNonOwners(t *testing.T) {
	s := register(New(cfg(4, 8), nil), 2, 0)
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

// countEverything leaves a count in every part of both blocks of a
// two-node s, on a table 1 it registers: an accounting walk's, an engine's
// (an inline gather), a recovery's (a resync) and the serve path's.
func countEverything(t *testing.T, s *Service) {
	t.Helper()
	s.RegisterTable(1, 2, flatRows(2, 16))
	s.RecordServeGather(1, [][]int32{{0}, {0}})
	w := s.PlanGather(1, [][]int32{{0, 1}, {0, 1}})
	if w == nil {
		t.Fatal("plan must carry a fabric fetch")
	}
	s.Gatherer().GatherSync(w)
	w.Release()
	if err := s.resyncOwner(1, NewInproc()); err != nil {
		t.Fatal(err)
	}
	st, sv := s.Snapshot(), s.ServeSnapshot()
	if st.Lookups == 0 || st.SyncWindows != 1 || st.ResyncRows == 0 || sv.Lookups == 0 {
		t.Fatalf("counts missing:\ntrain %+v\nserve %+v", st, sv)
	}
}

func TestResetStatsKeepsCacheState(t *testing.T) {
	s := register(New(cfg(2, 8), nil), 2, 0)
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	countEverything(t, s)
	serve := s.ServeSnapshot()
	s.ResetStats()
	if st := s.Snapshot(); st != (Stats{Nodes: 2}) {
		t.Fatalf("reset must zero the whole training block: %+v", st)
	}
	if sv := s.ServeSnapshot(); sv != serve {
		t.Fatalf("ResetStats must keep the serve block:\n got %+v\nwant %+v", sv, serve)
	}
	s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	if st := s.Snapshot(); st.CacheHits != 2 {
		t.Fatalf("cache contents must survive ResetStats: %+v", st)
	}
}

// TestStatsCountsEveryField: counts lists every counter of Stats — each
// int64 and time.Duration field but Nodes — exactly once, so Sub, the fold
// of a call's counts and the cross-transport comparison cover a field the
// day it is added; and WithoutWall clears exactly the time.Duration fields.
func TestStatsCountsEveryField(t *testing.T) {
	var s Stats
	typ := reflect.TypeFor[Stats]()
	field := map[*int64]int{} // counter address -> field index
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Name == "Nodes" {
			continue
		}
		if k := f.Type.Kind(); k != reflect.Int64 {
			t.Fatalf("field %s is a %s: a counter is an int64 or a time.Duration", f.Name, f.Type)
		}
		addr := reflect.ValueOf(&s).Elem().Field(i).Addr()
		field[addr.Convert(reflect.TypeFor[*int64]()).Interface().(*int64)] = i
	}
	seen := map[*int64]bool{}
	for i, c := range s.counts() {
		if _, ok := field[c]; !ok || seen[c] {
			t.Fatalf("counts()[%d] is nil, a repeat or not a counter field", i)
		}
		seen[c] = true
	}
	for c, i := range field {
		if !seen[c] {
			t.Fatalf("counts() leaves out field %s", typ.Field(i).Name)
		}
	}

	// Every counter 1..n, Nodes 7.
	s.Nodes = 7
	for i, c := range s.counts() {
		*c = int64(i + 1)
	}
	bare := reflect.ValueOf(s.WithoutWall())
	for i := range typ.NumField() {
		f, v := typ.Field(i), bare.Field(i)
		wall := f.Type == reflect.TypeFor[time.Duration]()
		if cleared := v.Int() == 0; cleared != wall {
			t.Fatalf("WithoutWall: field %s (wall %v) is %d", f.Name, wall, v.Int())
		}
	}
	if d := s.Sub(s); d != (Stats{Nodes: 7}) {
		t.Fatalf("s.Sub(s) = %+v, want zero counters and Nodes kept", d)
	}
}

func TestStatsFractionsAndDeltas(t *testing.T) {
	s := register(New(cfg(2, 16), nil), 2, 0)
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
		s := register(New(Config{Nodes: 4, CacheBytes: 4 * 64, RowBytes: 64}, nil), 64, 0)
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
