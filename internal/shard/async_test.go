package shard

import (
	"sync/atomic"
	"testing"
)

// planFor builds a service + plan over a fixed 2-node access set: batch
// position 0 (node 0) touches rows {0, 1}, position 1 (node 1) touches
// {0, 1}; with nothing hot and no cache, rows 1 (for node 0) and 0 (for
// node 1) cross the fabric. The table is registered with src as its row
// view (two rows of 16).
func planFor(t *testing.T, src RowAt) (*Service, *Staging) {
	t.Helper()
	s := New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 64}, hotSet(0))
	s.RegisterTable(0, 2, src)
	plan := s.PlanGather(0, [][]int32{{0, 1}, {0, 1}})
	if plan == nil {
		t.Fatal("plan must carry fabric fetches")
	}
	return s, plan
}

func TestPlanGatherMatchesRecordGather(t *testing.T) {
	// PlanGather must advance counters and cache state exactly like
	// RecordGather on the identical stream.
	idx := [][]int32{{0, 1, 5}, {0, 2, 5}, {3, 1}}
	a := register(New(Config{Nodes: 2, CacheBytes: 4 * 64, RowBytes: 64}, nil), 6, 0)
	b := register(New(Config{Nodes: 2, CacheBytes: 4 * 64, RowBytes: 64}, nil), 6, 0)
	for i := 0; i < 3; i++ {
		a.RecordGather(0, idx)
		b.PlanGather(0, idx)
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Fatalf("accounting diverged:\nRecord %+v\nPlan   %+v", sa, sb)
	}
}

func TestPlanGatherContents(t *testing.T) {
	_, plan := planFor(t, flatRows(2, 16))
	if plan.Rows() != 2 {
		t.Fatalf("staged rows = %d want 2", plan.Rows())
	}
	if plan.bytes != 2*64 {
		t.Fatalf("plan bytes = %d", plan.bytes)
	}
	if len(plan.buf) != 2*16 {
		t.Fatalf("buffer holds %d floats, want two rows of the configured 16", len(plan.buf))
	}
	// Rows staged under their owners: row 0 on node 0, row 1 on node 1.
	if len(plan.perOwner[0]) != 1 || plan.perOwner[0][0] != 0 {
		t.Fatalf("owner 0 fetches %v", plan.perOwner[0])
	}
	if len(plan.perOwner[1]) != 1 || plan.perOwner[1][0] != 1 {
		t.Fatalf("owner 1 fetches %v", plan.perOwner[1])
	}
}

func TestPlanGatherNilWhenNothingCrosses(t *testing.T) {
	s := register(New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 64}, nil), 2, 0)
	// Node 0 touching its own row 0, node 1 its own row 1: all local.
	if plan := s.PlanGather(0, [][]int32{{0}, {1}}); plan != nil {
		t.Fatalf("all-local plan must be nil, got %+v", plan)
	}
	one := register(New(Config{Nodes: 1, CacheBytes: 0, RowBytes: 64}, nil), 2, 0)
	if plan := one.PlanGather(0, [][]int32{{0, 1}}); plan != nil {
		t.Fatal("single-node plan must be nil")
	}
}

func TestAsyncGatherStagesRows(t *testing.T) {
	view := flatRows(2, 16) // element k of row r holds r*16+k
	var fetches atomic.Int64
	s, st := planFor(t, func(row int32) []float32 {
		fetches.Add(1)
		return view(row)
	})
	g := s.Gatherer()
	g.Submit(st)
	st.Await()
	if fetches.Load() != 2 {
		t.Fatalf("fetches = %d want 2", fetches.Load())
	}
	for _, row := range []int32{0, 1} {
		v, ok := st.Lookup(row)
		if !ok {
			t.Fatalf("row %d not staged", row)
		}
		for k := range v {
			if v[k] != float32(row)*16+float32(k) {
				t.Fatalf("row %d slot %d = %g", row, k, v[k])
			}
		}
	}
	if _, ok := st.Lookup(7); ok {
		t.Fatal("unfetched row must miss the staging buffer")
	}
	if ov := g.Stats(); ov.Windows != 1 || ov.PrefetchRows != 2 || ov.PrefetchBytes != 2*64 {
		t.Fatalf("stats: %+v", ov)
	}
}

func TestAsyncGatherManyWindows(t *testing.T) {
	// Many in-flight windows across nodes exercise the double-buffered
	// queues; every window's staging must land fully.
	s := New(Config{Nodes: 4, CacheBytes: 0, RowBytes: 4}, hotSet(0))
	s.RegisterTable(0, 32, flatRows(32, 1)) // row r holds r
	g := s.Gatherer()
	var handles []*Staging
	for it := 0; it < 64; it++ {
		idx := make([][]int32, 8)
		for b := range idx {
			idx[b] = []int32{int32((it + b) % 32), int32((it*3 + b) % 32)}
		}
		if w := s.PlanGather(0, idx); w != nil {
			g.Submit(w)
			handles = append(handles, w)
		}
	}
	if len(handles) == 0 {
		t.Fatal("expected fabric traffic")
	}
	for _, st := range handles {
		st.Await()
		for _, c := range st.cells {
			if slot := c.slot1 - 1; slot >= 0 && st.buf[slot] != float32(c.row) {
				t.Fatalf("row %d staged %g", c.row, st.buf[slot])
			}
		}
	}
	if got := g.Stats().Windows; got != int64(len(handles)) {
		t.Fatalf("windows = %d want %d", got, len(handles))
	}
}

func TestGatherSyncAccountsExposedTime(t *testing.T) {
	svc, st := planFor(t, flatRows(2, 16))
	g := svc.Gatherer()
	g.GatherSync(st)
	if st.Rows() != 2 {
		t.Fatalf("staged rows = %d", st.Rows())
	}
	s := g.Stats()
	if s.SyncWindows != 1 || s.SyncRows != 2 || s.SyncGather <= 0 {
		t.Fatalf("sync stats: %+v", s)
	}
	if s.Windows != 0 {
		t.Fatalf("sync gather must not count as a prefetch window: %+v", s)
	}
}

// --- bugfix regressions ----------------------------------------------------

func TestPureRemoteCacheMode(t *testing.T) {
	// CacheBytes = 0 is the explicit pure-remote mode: everything remote
	// crosses the fabric, nothing is admitted, and — the regression — no
	// fill traffic is accounted for admissions that cannot happen.
	s := register(New(Config{Nodes: 2, CacheBytes: 0, RowBytes: 64}, nil), 2, 0)
	if !s.Config().PureRemote() {
		t.Fatal("zero cache must report PureRemote")
	}
	for i := 0; i < 3; i++ {
		s.RecordGather(0, [][]int32{{0, 1}, {0, 1}})
	}
	st := s.Snapshot()
	if st.FillBytes != 0 {
		t.Fatalf("pure-remote service accounted %d fill bytes", st.FillBytes)
	}
	if st.CacheHits != 0 || st.Evictions != 0 {
		t.Fatalf("pure-remote service must never hit or evict: %+v", st)
	}
	// Every iteration re-fetches: 2 remote rows per call.
	if st.GatherRows != 6 {
		t.Fatalf("gather rows = %d want 6", st.GatherRows)
	}
}

func TestSubRowCacheRejected(t *testing.T) {
	// 0 < CacheBytes < RowBytes used to truncate silently to a zero-row
	// cache; it is now a validation error steering callers to the explicit
	// pure-remote mode.
	cfg := Config{Nodes: 2, CacheBytes: 63, RowBytes: 64}
	if err := cfg.Validate(); err == nil {
		t.Fatal("sub-row cache budget must fail validation")
	}
	if err := (Config{Nodes: 2, CacheBytes: 0, RowBytes: 64}).Validate(); err != nil {
		t.Fatalf("pure-remote config must validate: %v", err)
	}
	if err := (Config{Nodes: 2, CacheBytes: 64, RowBytes: 64}).Validate(); err != nil {
		t.Fatalf("one-row cache must validate: %v", err)
	}
}
