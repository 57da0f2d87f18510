package shard

import (
	"math"
	"runtime"
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
	f.svc.RegisterTable(0, dim, rows, func(row int32) []float32 { return f.store[row] })
	return f
}

// issue plans and submits one window over the index set and registers it.
func (f *windowFixture) issue(q *WindowQueue, idx [][]int32) {
	w := f.svc.PlanGather(0, idx)
	if w != nil {
		f.g.Submit(w)
	}
	q.Push(idx, w)
}

func TestWindowQueueMatchIsFIFOAndExact(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	idxA := [][]int32{{0, 1}, {0, 1}}
	idxB := [][]int32{{2, 3}, {2, 3}}
	f.issue(q, idxA)
	f.issue(q, idxB)
	if q.Len() != 2 {
		t.Fatalf("open windows = %d want 2", q.Len())
	}
	// A younger window must not be served while an older one is open, and
	// a foreign index set must not disturb the queue.
	if w := q.Match(idxB); w != nil {
		t.Fatal("younger window served out of order")
	}
	if w := q.Match([][]int32{{0, 1}, {0, 1}}); w != nil {
		t.Fatal("equal-content but different-identity index set must not match")
	}
	wa := q.Match(idxA)
	if wa == nil {
		t.Fatal("oldest window must match its index set")
	}
	q.Consume(wa)
	if v, ok := wa.Lookup(1); !ok || v[0] != 100 {
		t.Fatalf("staged row 1 = %v ok=%v", v, ok)
	}
	wa.Release()
	if wb := q.Match(idxB); wb == nil {
		t.Fatal("second window must match after the first is consumed")
	} else {
		q.Consume(wb)
		wb.Release()
	}
	if q.Len() != 0 {
		t.Fatalf("open windows = %d want 0", q.Len())
	}
}

func TestWindowQueueDirtyRowRepair(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	idx := [][]int32{{0, 1}, {0, 1}} // rows 0 and 1 both cross the fabric
	f.issue(q, idx)

	// A sparse update rewrites row 1 after the window was issued: marking
	// joins the in-flight fetches first, so the mutation cannot race them.
	q.MarkDirty([]int32{1, 1, 5}) // repeats and un-staged rows are fine
	f.store[1][0] = -42

	st := q.Match(idx)
	q.Consume(st)
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

	q := f.svc.NewWindowQueue(0)
	f.issue(q, idx)
	q.MarkDirty([]int32{3})
	f.store[3][0], f.store[3][2] = -7.25, math.Float32frombits(0x7f800001)
	w = q.Match(idx)
	q.Consume(w)
	sameBits("repair")
	w.Release()
}

func TestWindowQueueStaleMode(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	f.svc.SetStaleReads(true)
	q := f.svc.NewWindowQueue(0)
	idx := [][]int32{{0, 1}, {0, 1}}
	f.issue(q, idx)

	q.MarkDirty([]int32{1})
	f.store[1][0] = -42

	st := q.Match(idx)
	q.Consume(st)
	if v, _ := st.Lookup(1); v[0] != 100 {
		t.Fatalf("stale mode must serve the issue-time value, got %v", v)
	}
	stats := f.g.Stats()
	if stats.StaleRows != 1 || stats.RepairRows != 0 {
		t.Fatalf("stale accounting: %+v", stats)
	}
	st.Release()
}

func TestWindowQueueAbortDiscardsAll(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	idxA := [][]int32{{0, 1}, {0, 1}}
	idxB := [][]int32{{2, 3}, {2, 3}}
	f.issue(q, idxA)
	f.issue(q, idxB)
	q.Abort()
	if q.Len() != 0 {
		t.Fatalf("abort left %d windows open", q.Len())
	}
	if w := q.Match(idxA); w != nil {
		t.Fatal("aborted window must not match")
	}
}

func TestWindowQueueEmptyPlanWindow(t *testing.T) {
	// All-local accesses plan nothing; the empty window keeps the FIFO
	// aligned and consumes to no staged rows.
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	idx := [][]int32{{0}, {1}} // node 0 owns row 0, node 1 owns row 1
	f.issue(q, idx)
	w := q.Match(idx)
	if w == nil {
		t.Fatal("empty-plan window must still match")
	}
	if q.Consume(w); w.Rows() != 0 {
		t.Fatalf("empty-plan window staged %d rows", w.Rows())
	}
	w.Release()
}

func TestWindowQueueBoundsOpenWindows(t *testing.T) {
	// A caller that prefetches but never pointer-matches its forwards must
	// not leak windows: the FIFO evicts its oldest entry past the cap.
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	for i := 0; i < 3*maxOpenWindows; i++ {
		f.issue(q, [][]int32{{0, 1}, {0, 1}}) // fresh slice header each call
	}
	if q.Len() != maxOpenWindows {
		t.Fatalf("open windows = %d want cap %d", q.Len(), maxOpenWindows)
	}
}

// TestReleasedWindowComesBackReset pins the pool's contract on the one
// pooled type: Release hands the same object to the next plan, with nothing
// of the previous window — plan, width table, queue entry — left on it.
func TestReleasedWindowComesBackReset(t *testing.T) {
	f := newWindowFixture(t, 8, 4)
	q := f.svc.NewWindowQueue(0)
	idx := [][]int32{{0, 1}, {0, 1}}
	f.issue(q, idx)
	q.MarkDirty([]int32{1})
	w := q.Match(idx)
	q.Consume(w)
	if w.Rows() != 2 || w.bytes != 2*16 || w.table != 0 || len(w.buf) != 2*4 {
		t.Fatalf("window before release: rows %d bytes %d table %d buf %d", w.Rows(), w.bytes, w.table, len(w.buf))
	}
	w.Release()

	// The empty marker of an all-local prefetch draws from the same pool.
	local := [][]int32{{0}, {1}}
	f.issue(q, local)
	w2 := q.Match(local)
	if w2 != w {
		t.Fatal("released window must be recycled")
	}
	if w2.Rows() != 0 || w2.bytes != 0 || w2.fabricRows() != 0 || len(w2.dirty) != 0 || w2.inFlight {
		t.Fatalf("recycled window not reset: %+v", w2)
	}
	for o, rows := range w2.perOwner {
		if len(rows) != 0 {
			t.Fatalf("recycled window still lists %v for owner %d", rows, o)
		}
	}
	w2.Release()

	// And a plan over another table re-keys it.
	w3 := f.svc.PlanGather(3, idx)
	if w3 != w {
		t.Fatal("released window must be recycled for the next plan")
	}
	if w3.table != 3 || w3.Rows() != 2 || w3.indices != nil {
		t.Fatalf("re-planned window: table %d rows %d indices %v", w3.table, w3.Rows(), w3.indices)
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
	s.RegisterTable(0, 4, 8, flatRows(8, 4))
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
