package shard

import (
	"slices"
	"sync"
	"time"

	"hotline/internal/tensor"
)

// Staging is one gather window: the working parameters of one µ-batch on
// their way from the owner nodes to the consumer. It is the plan, the
// landing buffer, the completion state and the dirty-row list of that
// window in one pooled object, with one acquire (Service.PlanGather /
// PlanServeGather) and one Release:
//
//   - The plan — the distinct rows of one table that must be staged, a slot
//     for each in an open-addressed table sized to the plan, the rows that
//     cross the fabric grouped by the owner node that streams them — is built
//     under the service mutex by the accounting walk and is immutable
//     afterwards, so membership tests (Has) are safe while fetches are still
//     in flight.
//   - The buffer is a dense rows x dim matrix, sized where the window is
//     planned. Workers fill disjoint slots concurrently; consumers read it
//     (Lookup) only after Await, then apply the rows in their own fixed
//     iteration order.
//   - An issued window (AsyncGatherer.Submit) completes when its last
//     per-owner fetch retires; Await blocks for whatever is still missing.
//   - In a depth-k pipeline a submitted window stays in its engine's open
//     set until Release, with a dirty list: a staged row can go stale while
//     the window is open (a later sparse update rewrites the owner row,
//     Service.MarkDirty), and Consume repairs exactly those rows, which keeps
//     every depth bit-identical to batch-by-batch stepping.
//
// A window belongs to the engine that planned it and to exactly one user
// between acquire and Release; a depth-k pipeline cycles through a fixed set
// of them, so the steady-state path allocates nothing.
type Staging struct {
	g *AsyncGatherer // the engine whose pool the window cycles through

	table int // keys the accounting and the fabric fetches
	// bytes is the fabric volume the plan represents, matching the
	// GatherBytes accounting (per-(requesting node, row) dedup, so a row two
	// nodes miss is priced twice even though it stages once).
	bytes    int64
	perOwner [][]int32 // perOwner[o]: distinct rows owner o must stream
	// cells is the row -> staging slot table, open-addressed with linear
	// probing. acquire sizes it to at least twice the plan's lookups, so it is
	// never more than half full and a probe always ends; it stays with the
	// pooled window, and shift keeps the hash's top bits that index it.
	cells []slotCell
	shift uint32
	rows  int32 // distinct rows staged: slots 0..rows-1 are taken
	// quant lists the staged rows served as warm-tier cache hits: no owner
	// streams them — the fused dequantize-gather kernel materializes each one
	// into its staging slot from the authoritative bits at staging time
	// (fillQuant). They occupy slots but add no fabric bytes.
	quant []quantRow
	// src is the row view the table registered, set by the planner: where
	// the in-proc fetch, fillQuant and the warm-row repair read the
	// authoritative bits (nil for a table registered without one, whose
	// window can be planned but not filled).
	src RowAt

	dim int
	buf []float32
	// widths records each slot's serving precision (empty = all fp32; sized
	// only when the plan staged warm-tier hits). The repair path consults it
	// to re-run the fused kernel instead of re-fetching.
	widths []Width

	mu       sync.Mutex
	cond     sync.Cond // cond.L = &mu
	pending  int       // per-owner fetch jobs still out
	inFlight bool      // submitted and not yet awaited

	dirty []int32 // staged rows invalidated since issue (may repeat)
	// repair[o] is Consume's scratch: the dirty fp32 rows owner o re-sends.
	repair [][]int32
}

// add registers one fabric fetch of row from owner. Rows are staged once
// even when several requesting nodes fetch them (identical payload), while
// bytes accumulates the full per-node fabric volume.
//
//hotline:hotpath
func (w *Staging) add(row int32, owner int, rowBytes int64) {
	w.bytes += rowBytes
	if _, fresh := w.claim(row); fresh {
		w.perOwner[owner] = append(w.perOwner[owner], row) //hotline:allow hotalloc per-owner lists are pooled window scratch; growth converges to the gather high-water mark
	}
}

// addQuant registers one warm-tier cache hit for staging through the fused
// dequantize-gather kernel. It reports whether the row claimed a fresh slot:
// a row already staged keeps its first planner's treatment (a fabric fetch
// stays exact fp32 even if another node later hits it quantized, and a
// quantized hit keeps its dequantized value even if another node later
// misses — the miss still accounts its GatherBytes). First-planner-wins is
// deterministic because planGather walks indices in order.
//
//hotline:hotpath
func (w *Staging) addQuant(row int32, wd Width) bool {
	slot, fresh := w.claim(row)
	if fresh {
		w.quant = append(w.quant, quantRow{row, slot, wd}) //hotline:allow hotalloc the quant list is pooled window scratch; growth converges to the gather high-water mark
	}
	return fresh
}

// slotCell is one cell of a window's slot table: a staged row and its slot
// plus one, so the zero cell is empty.
type slotCell struct {
	row, slot1 int32
}

// quantRow is one warm-tier row of a plan: the row, the slot it claimed and
// the width the fused kernel round-trips it through.
type quantRow struct {
	row, slot int32
	wd        Width
}

// reserve readies an empty slot table for a plan of at most lookups rows:
// the smallest power of two of at least 2*lookups cells (16 at least), so the
// table is never more than half full. It reuses the pooled window's cells,
// which Release leaves cleared.
func (w *Staging) reserve(lookups int) {
	bits := uint32(4)
	for 1<<bits < 2*lookups {
		bits++
	}
	if n := 1 << bits; cap(w.cells) < n {
		w.cells = make([]slotCell, n)
	} else {
		w.cells = w.cells[:n]
	}
	w.shift = 32 - bits
}

// home is row's first cell in the slot table (Fibonacci hashing: the top
// bits of the product).
//
//hotline:hotpath
func (w *Staging) home(row int32) uint32 { return uint32(row) * 0x9E3779B1 >> w.shift }

// claim returns row's staging slot, assigning the next free one when the plan
// has not staged row yet (fresh).
//
//hotline:hotpath
func (w *Staging) claim(row int32) (slot int32, fresh bool) {
	mask := uint32(len(w.cells) - 1)
	for i := w.home(row); ; i = (i + 1) & mask {
		c := &w.cells[i]
		if c.slot1 == 0 {
			if 2*(int(w.rows)+1) > len(w.cells) {
				panic("shard: window slot table sized below its plan")
			}
			w.rows++
			c.row, c.slot1 = row, w.rows
			return w.rows - 1, true
		}
		if c.row == row {
			return c.slot1 - 1, false
		}
	}
}

// find returns row's staging slot, or -1 when the plan did not stage it.
//
//hotline:hotpath
func (w *Staging) find(row int32) int32 {
	mask := uint32(len(w.cells) - 1)
	for i := w.home(row); ; i = (i + 1) & mask {
		c := w.cells[i]
		if c.slot1 == 0 || c.row == row {
			return c.slot1 - 1
		}
	}
}

// sizeBuffer sizes the landing buffer for the finished plan: one dim-wide
// slot per staged row, and the per-slot width table only for windows that
// stage warm-tier hits (everything defaults to fp32 and fillQuant marks its
// slots).
func (w *Staging) sizeBuffer(dim int) {
	n := int(w.rows)
	w.dim = dim
	if cap(w.buf) < n*dim {
		w.buf = make([]float32, n*dim)
	}
	w.buf = w.buf[:n*dim]
	w.widths = w.widths[:0]
	if len(w.quant) > 0 {
		if cap(w.widths) < n {
			w.widths = make([]Width, n)
		}
		w.widths = w.widths[:n]
		clear(w.widths)
	}
}

// Rows returns the number of distinct staged rows.
func (w *Staging) Rows() int { return int(w.rows) }

// fabricRows returns the staged rows that actually cross the fabric
// (Rows minus the warm-tier hits the fused kernel materializes locally).
func (w *Staging) fabricRows() int { return int(w.rows) - len(w.quant) }

// Lookup returns the staged copy of row, if the plan fetched it.
//
//hotline:hotpath
func (w *Staging) Lookup(row int32) ([]float32, bool) {
	i := int(w.find(row))
	if i < 0 {
		return nil, false
	}
	return w.buf[i*w.dim : (i+1)*w.dim], true
}

// Has reports whether the plan staged row, without touching the buffer (so
// it is safe while fetches are still in flight).
//
//hotline:hotpath
func (w *Staging) Has(row int32) bool { return w.find(row) >= 0 }

// Width returns the precision a staged row is served at (WidthFP32 for rows
// that crossed the fabric exactly, and for rows the plan never staged).
//
//hotline:hotpath
func (w *Staging) Width(row int32) Width {
	if len(w.widths) == 0 {
		return WidthFP32
	}
	i := w.find(row)
	if i < 0 {
		return WidthFP32
	}
	return w.widths[i]
}

// quantAhead is how many warm rows ahead of the one it rounds fillQuant
// prefetches. The rows are the non-popular tail, spread over the whole table,
// so nearly every one misses in cache; the plan lists them all before the
// fill starts, so their loads can be asked for early. Sized by
// BenchmarkPrefetchWindow/int8-8x64-flat (fabric-unix's shape).
const quantAhead = 4

// fillQuant runs the fused dequantize-gather kernel over the plan's
// warm-tier rows: each row's current authoritative bits are read straight
// from the table's registered row view (src) and round-tripped through the
// entry's width into its staging slot — exactly the value a coherent
// quantized replica would serve — with no copy in between and zero
// allocations. While it rounds one row, the row quantAhead places later is
// prefetched. Runs on the planning goroutine before any fabric job is
// enqueued, so it never races worker fills (slots are disjoint) or sparse
// updates (same thread).
//
//hotline:hotpath
func (w *Staging) fillQuant() {
	for i, q := range w.quant {
		if next := i + quantAhead; next < len(w.quant) {
			tensor.PrefetchRow(w.src(w.quant[next].row))
		}
		s := int(q.slot)
		dequantRowInto(w.buf[s*w.dim:(s+1)*w.dim], w.src(q.row), q.wd)
		w.widths[s] = q.wd
	}
}

// jobDone retires one per-owner fetch job.
func (w *Staging) jobDone() {
	w.mu.Lock()
	w.pending--
	if w.pending == 0 {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// Await blocks until every fetch of a submitted window has landed. The
// calling goroutine helps drain outstanding queue buffers instead of idling,
// and the blocked wall time is accounted as exposed gather time — the part
// of the fabric traffic the overlap failed to hide. Only the first call
// after a Submit waits; on a landed (or never submitted) window it returns
// at once.
func (w *Staging) Await() {
	if !w.inFlight {
		return
	}
	w.inFlight = false
	start := time.Now() //hotline:allow detorder measured exposed-gather wall; never feeds math
	for _, q := range w.g.queues {
		q.drainOn()
	}
	w.mu.Lock()
	for w.pending > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.g.svc.count(false, &Stats{Exposed: time.Since(start)}) //hotline:allow detorder measured exposed-gather wall; never feeds math
}

// acquire hands out a released (or new) window, empty, keyed to table, with a
// slot table for a plan over at most lookups rows: the accounting walk takes
// one at the first row that needs staging.
func (g *AsyncGatherer) acquire(table, lookups int) *Staging {
	var w *Staging
	g.poolMu.Lock()
	if n := len(g.pool); n > 0 {
		w = g.pool[n-1]
		g.pool = g.pool[:n-1]
	}
	g.poolMu.Unlock()
	if w == nil {
		w = &Staging{g: g, perOwner: make([][]int32, len(g.queues)), repair: make([][]int32, len(g.queues))}
		w.cond.L = &w.mu
	}
	w.table = table
	w.reserve(lookups)
	return w
}

// Release returns a consumed window to its engine's pool, reset, and takes
// it out of the engine's open set. Callers must not touch it (or any row
// slice obtained from Lookup) afterwards, and must not release a window whose
// fetches are still in flight.
func (w *Staging) Release() {
	g := w.g
	g.openMu.Lock()
	for i, o := range g.open {
		if o == w {
			// The slot past the end keeps a pointer to one of the engine's
			// own windows until the next Submit overwrites it.
			last := len(g.open) - 1
			g.open[i] = g.open[last]
			g.open = g.open[:last]
			break
		}
	}
	g.openMu.Unlock()
	w.bytes = 0
	for o := range w.perOwner {
		w.perOwner[o] = w.perOwner[o][:0]
	}
	clear(w.cells)
	w.rows = 0
	w.quant = w.quant[:0]
	w.dirty = w.dirty[:0]
	g.poolMu.Lock()
	g.pool = append(g.pool, w)
	g.poolMu.Unlock()
}

// MarkDirty records that a sparse update of table is about to rewrite the
// given rows: every open window of the table that staged one of them is
// joined (fetches complete before the caller mutates storage) and the row is
// added to its dirty list for repair at consume time. rows may contain
// repeats; the repair pass dedups.
func (s *Service) MarkDirty(table int, rows []int32) {
	g := s.gather
	g.openMu.Lock()
	defer g.openMu.Unlock()
	for _, w := range g.open {
		if w.table != table {
			continue
		}
		for _, r := range rows {
			if !w.Has(r) {
				continue
			}
			w.Await()
			w.dirty = append(w.dirty, r)
		}
	}
}

// Consume joins the window and repairs every dirty row — a fabric row
// re-fetched from its owner shard over the transport, a warm-tier row
// round-tripped again from the table's row view — so the staged values are
// bit-identical to what a synchronous gather would read now. In stale mode
// (Service.SetStaleReads) the repair is skipped and the distinct dirtied rows
// are counted instead. Release the window after reading it.
func (w *Staging) Consume() {
	w.Await()
	if len(w.dirty) == 0 {
		return
	}
	svc := w.g.svc
	// Dedup in place: repeated updates to one staged row repair it once.
	slices.Sort(w.dirty)
	w.dirty = slices.Compact(w.dirty)
	if svc.StaleReads() {
		svc.count(false, &Stats{StaleRows: int64(len(w.dirty))})
		return
	}
	st := Stats{RepairRows: int64(len(w.dirty))}
	own := svc.owners(w.table)
	for o := range w.repair {
		w.repair[o] = w.repair[o][:0]
	}
	for _, r := range w.dirty {
		if wd := w.Width(r); wd != WidthFP32 {
			// Warm-tier staged row: re-run the fused dequantize-gather on the
			// row's current bits — the refreshed coherent replica — instead of
			// a fabric fetch. Identical to what a synchronous quantized gather
			// would serve now, so every depth stays bit-identical to
			// batch-by-batch stepping in quantized mode too. The refresh push
			// a real warm replica would receive is priced at the entry width.
			if dst, ok := w.Lookup(r); ok {
				dequantRowInto(dst, w.src(r), wd)
			}
			st.RepairBytes += wd.RowBytes(w.dim)
			continue
		}
		w.repair[own[r]] = append(w.repair[own[r]], r)
		st.RepairBytes += svc.Config().RowBytes
	}
	// One fabric re-fetch per owner, of its dirty rows in row order.
	for owner, rows := range w.repair {
		if len(rows) > 0 {
			wall, _ := svc.transportFetch(w.table, owner, rows, w)
			st.GatherWall += wall
		}
	}
	svc.count(false, &st)
}
