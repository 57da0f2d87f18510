package shard

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// windowFixture builds a 2-node pure-remote service and a float32 backing
// store of `rows` rows, registered as table 0's row view.
type windowFixture struct {
	svc   *Service
	g     *AsyncGatherer
	store [][]float32
}

func newWindowFixture(t *testing.T, rows, dim int) *windowFixture {
	t.Helper()
	f := &windowFixture{}
	f.svc = New(Config{Nodes: 2, CacheBytes: 0, RowBytes: int64(dim) * 4}, hotSet(0))
	f.g = f.svc.Gatherer()
	f.store = make([][]float32, rows)
	for r := range f.store {
		f.store[r] = make([]float32, dim)
		for k := range f.store[r] {
			f.store[r][k] = float32(r*100 + k)
		}
	}
	f.svc.RegisterTable(0, rows, func(row int32) []float32 { return f.store[row] })
	return f
}

// issue plans and submits one window over the index set.
func (f *windowFixture) issue(idx [][]int32) *Staging {
	w := f.svc.PlanGather(0, idx)
	f.g.Submit(w)
	return w
}

func TestWindowDirtyRowRepair(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	idx := [][]int32{{0, 1}, {0, 1}} // rows 0 and 1 both cross the fabric
	st := f.issue(idx)

	// A sparse update rewrites row 1 after the window was issued: marking
	// joins the in-flight fetches first, so the mutation cannot race them.
	// An update of another table leaves the window alone.
	f.svc.MarkDirty(1, []int32{0})
	f.svc.MarkDirty(0, []int32{1, 1, 5}) // repeats and un-staged rows are fine
	f.store[1][0] = -42

	st.Consume()
	if v, _ := st.Lookup(1); v[0] != -42 {
		t.Fatalf("dirty row not repaired: %v", v)
	}
	if v, _ := st.Lookup(0); v[0] != 0 {
		t.Fatalf("clean row must keep its staged value: %v", v)
	}
	stats := f.g.Stats()
	if stats.RepairRows != 1 || stats.RepairBytes != 16 {
		t.Fatalf("repair accounting: %+v", stats)
	}
	if stats.StaleRows != 0 {
		t.Fatalf("repair mode counted stale rows: %+v", stats)
	}
	st.Release()
}

// countingTransport is a transport that counts its fetches.
type countingTransport struct {
	Transport
	fetches atomic.Int64
}

func (c *countingTransport) Fetch(table, owner int, rows []int32, st *Staging, f FetchFunc) error {
	c.fetches.Add(1)
	return c.Transport.Fetch(table, owner, rows, st, f)
}

// TestWindowRepairFetchesOncePerOwner: a window's dirty fp32 rows are
// re-fetched in one call per owner — k dirty rows across m owners make m
// fetches — and the repair accounting still counts every row.
func TestWindowRepairFetchesOncePerOwner(t *testing.T) {
	const rows, dim = 16, 4
	svc := New(Config{Nodes: 4, CacheBytes: 0, RowBytes: dim * 4}, nil)
	defer svc.Close()
	tr := &countingTransport{Transport: NewInproc()}
	svc.SetTransport(tr)
	store := make([]float32, rows*dim)
	view := func(r int32) []float32 { return store[int(r)*dim : (int(r)+1)*dim] }
	svc.RegisterTable(0, rows, view)
	// Node 0 requests every row it does not own: owners 1, 2 and 3.
	w := svc.PlanGather(0, [][]int32{{1, 2, 3, 5, 6, 7, 9, 10, 11}})
	svc.Gatherer().Submit(w)
	dirty := []int32{9, 1, 5, 2, 1} // owner 1 three times, owner 2 once, a repeat
	svc.MarkDirty(0, dirty)
	for _, r := range dirty {
		view(r)[0] = -float32(r)
	}
	before := tr.fetches.Load()
	w.Consume()
	if got := tr.fetches.Load() - before; got != 2 {
		t.Fatalf("4 dirty rows of 2 owners repaired in %d fetches, want 2", got)
	}
	for _, r := range dirty {
		if v, _ := w.Lookup(r); v[0] != -float32(r) {
			t.Fatalf("dirty row %d not repaired: %v", r, v)
		}
	}
	if st := svc.Gatherer().Stats(); st.RepairRows != 4 || st.RepairBytes != 4*dim*4 {
		t.Fatalf("repair accounting: %d rows, %d bytes; want 4 rows, %d bytes", st.RepairRows, st.RepairBytes, 4*dim*4)
	}
	w.Release()
}

// TestInprocFetchReadsTheRegisteredView: the registered row view is the only
// row source. The in-proc transport, handed no fetch function, stages a
// registered table's rows bit for bit, and a dirty-row repair after a row of
// the view changed restages the view's new bits.
func TestInprocFetchReadsTheRegisteredView(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	f.store[3][2] = float32(math.Inf(-1))
	f.store[5][1] = math.Float32frombits(0x7fc00123) // a NaN with a payload
	idx := [][]int32{{1, 3, 5}, {0, 2, 4}}           // odd rows remote to node 0, even to node 1
	w := f.svc.PlanGather(0, idx)
	for owner, rows := range w.perOwner {
		if err := NewInproc().Fetch(0, owner, rows, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(when string) {
		t.Helper()
		for _, r := range []int32{0, 1, 2, 3, 4, 5} {
			v, ok := w.Lookup(r)
			if !ok {
				t.Fatalf("%s: row %d not staged", when, r)
			}
			for k, want := range f.store[r] {
				if math.Float32bits(v[k]) != math.Float32bits(want) {
					t.Fatalf("%s: row %d[%d] = %v, the view holds %v", when, r, k, v[k], want)
				}
			}
		}
	}
	sameBits("fetch")
	w.Release()

	w = f.issue(idx)
	f.svc.MarkDirty(0, []int32{3})
	f.store[3][0], f.store[3][2] = -7.25, math.Float32frombits(0x7f800001)
	w.Consume()
	sameBits("repair")
	w.Release()
}

func TestWindowStaleMode(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	f.svc.SetStaleReads(true)
	st := f.issue([][]int32{{0, 1}, {0, 1}})

	f.svc.MarkDirty(0, []int32{1})
	f.store[1][0] = -42

	st.Consume()
	if v, _ := st.Lookup(1); v[0] != 100 {
		t.Fatalf("stale mode must serve the issue-time value, got %v", v)
	}
	stats := f.g.Stats()
	if stats.StaleRows != 1 || stats.RepairRows != 0 {
		t.Fatalf("stale accounting: %+v", stats)
	}
	st.Release()
}

// TestReleasedWindowComesBackReset pins the pool's contract on the one
// pooled type: Release takes the window out of the engine's open set and
// hands the same object to the next plan, with nothing of the previous
// window — plan, width table, dirty list, completion state — left on it.
func TestReleasedWindowComesBackReset(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	idx := [][]int32{{0, 1}, {0, 1}}
	w := f.issue(idx)
	if n := f.g.OpenWindows(); n != 1 {
		t.Fatalf("a submitted window is not open: %d open", n)
	}
	f.svc.MarkDirty(0, []int32{1})
	w.Consume()
	if w.Rows() != 2 || w.bytes != 2*16 || w.table != 0 || len(w.buf) != 2*4 {
		t.Fatalf("window before release: rows %d bytes %d table %d buf %d", w.Rows(), w.bytes, w.table, len(w.buf))
	}
	w.Release()
	if n := f.g.OpenWindows(); n != 0 {
		t.Fatalf("a released window is still open: %d open", n)
	}

	// The next plan draws the same object, reset.
	w2 := f.svc.PlanGather(0, [][]int32{{1}, {0}})
	if w2 != w {
		t.Fatal("released window must be recycled")
	}
	if w2.Rows() != 2 || w2.bytes != 2*16 || len(w2.dirty) != 0 || w2.inFlight {
		t.Fatalf("recycled window not reset: %+v", w2)
	}
	w2.Release()
	if n := f.g.OpenWindows(); n != 0 {
		t.Fatalf("a window never submitted left %d open", n)
	}

	// And a plan over another table re-keys it.
	register(f.svc, 8, 3)
	w3 := f.svc.PlanGather(3, idx)
	if w3 != w {
		t.Fatal("released window must be recycled for the next plan")
	}
	if w3.table != 3 || w3.Rows() != 2 {
		t.Fatalf("re-planned window: table %d rows %d", w3.table, w3.Rows())
	}
	if listed := len(w3.perOwner[0]) + len(w3.perOwner[1]); listed != 2 {
		t.Fatalf("re-planned window lists %d fetches for 2 rows: %v", listed, w3.perOwner)
	}
	w3.Release()
}

// TestRecordOnlyServiceParksNoGoroutine pins what lets every service own its
// engine: drainers start at the first Submit, one per owner that has rows to
// stream, so accounting replays, the in-proc serve read and synchronous
// staging cost no goroutine.
func TestRecordOnlyServiceParksNoGoroutine(t *testing.T) {
	const nodes = 4
	before := runtime.NumGoroutine()
	s := New(Config{Nodes: nodes, CacheBytes: 0, RowBytes: 16}, nil)
	defer s.Close()
	s.RegisterTable(0, 8, flatRows(8, 4))
	idx := [][]int32{{1, 2, 3}, {4, 6, 7}, {0, 1}, {2, 5}}
	s.RecordGather(0, idx)
	s.RecordServeGather(0, idx)
	s.RecordScatter(0, idx)
	w := s.PlanGather(0, idx)
	s.Gatherer().GatherSync(w)
	w.Release()
	w = s.PlanServeGather(0, idx)
	s.ServeGatherSync(w)
	w.Release()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("a service that never submitted runs %d goroutines, %d before it was built", got, before)
	}

	w = s.PlanGather(0, idx)
	s.Gatherer().Submit(w)
	if got := runtime.NumGoroutine(); got > before+nodes {
		t.Fatalf("the first Submit started %d goroutines over %d owners", got-before, nodes)
	}
	w.Await()
	w.Release()
}

func TestAsyncGathererCloseStillCompletes(t *testing.T) {
	// After Close the persistent drainers are gone, but consumers drain
	// submitted windows themselves in Await — nothing hangs or is lost.
	f := newWindowFixture(t, 8, 4)
	f.g.Close()
	st := f.svc.PlanGather(0, [][]int32{{0, 1}, {0, 1}})
	f.g.Submit(st)
	st.Await()
	if v, ok := st.Lookup(1); !ok || v[0] != 100 {
		t.Fatalf("post-close window staged %v ok=%v", v, ok)
	}
	st.Release()
}
