package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// GatherPlan is the fabric work one accounting pass produced: the distinct
// rows of one table that must cross the fabric, grouped by the node that
// owns (and therefore streams) them, plus a staging slot for every row.
// Plans are built under the service mutex (PlanGather) and are immutable
// afterwards. Plans are entries of the engine's PrefetchRing: consuming a
// window (AsyncGatherer.Release) recycles its plan, so a depth-k pipeline
// reuses a fixed set of plans instead of allocating one per call.
type GatherPlan struct {
	// Table keys the accounting and the staging lookups.
	Table int
	// Bytes is the fabric volume the plan represents, matching the
	// GatherBytes accounting (per-(requesting node, row) dedup, so a row two
	// nodes miss is priced twice even though it stages once).
	Bytes int64

	perOwner [][]int32     // perOwner[o]: distinct rows owner o must stream
	slot     map[int32]int // row -> staging slot (distinct rows only)

	// quant/qwidth list the staged rows served as warm-tier cache hits: no
	// owner streams them — the fused dequantize-gather kernel materializes
	// each one into its staging slot from the authoritative bits at staging
	// time (Staging.fillQuant). They occupy slots but add no fabric Bytes.
	quant  []int32
	qwidth []Width
}

func newGatherPlan(table, nodes int) *GatherPlan {
	p := &GatherPlan{slot: make(map[int32]int)}
	p.reset(table, nodes)
	return p
}

// reset readies a recycled plan for a new window, keeping the per-owner
// slices and the slot map's buckets.
func (p *GatherPlan) reset(table, nodes int) {
	p.Table = table
	p.Bytes = 0
	if cap(p.perOwner) < nodes {
		p.perOwner = make([][]int32, nodes)
	} else {
		p.perOwner = p.perOwner[:nodes]
		for i := range p.perOwner {
			p.perOwner[i] = p.perOwner[i][:0]
		}
	}
	clear(p.slot)
	p.quant = p.quant[:0]
	p.qwidth = p.qwidth[:0]
}

// add registers one fabric fetch of row from owner. Rows are staged once
// even when several requesting nodes fetch them (identical payload), while
// Bytes accumulates the full per-node fabric volume.
//
//hotline:hotpath
func (p *GatherPlan) add(row int32, owner int, rowBytes int64) {
	p.Bytes += rowBytes
	if _, ok := p.slot[row]; ok {
		return
	}
	p.slot[row] = len(p.slot)
	p.perOwner[owner] = append(p.perOwner[owner], row) //hotline:allow hotalloc per-owner lists are plan-ring scratch; growth converges to the gather high-water mark
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
func (p *GatherPlan) addQuant(row int32, w Width) bool {
	if _, ok := p.slot[row]; ok {
		return false
	}
	p.slot[row] = len(p.slot)
	p.quant = append(p.quant, row) //hotline:allow hotalloc quant lists are plan-ring scratch; growth converges to the gather high-water mark
	p.qwidth = append(p.qwidth, w) //hotline:allow hotalloc quant lists are plan-ring scratch; growth converges to the gather high-water mark
	return true
}

// Rows returns the number of distinct staged rows.
func (p *GatherPlan) Rows() int { return len(p.slot) }

// FabricRows returns the staged rows that actually cross the fabric
// (Rows minus the warm-tier hits the fused kernel materializes locally).
func (p *GatherPlan) FabricRows() int { return len(p.slot) - len(p.quant) }

// Staging is the landing buffer for one gather window's fetched rows: a
// dense rows x dim matrix plus the row -> slot map from the plan. Workers
// fill disjoint slots concurrently; consumers read it only after the
// window's Handle reports completion, then apply the rows in their own
// fixed iteration order. Under the depth-k pipeline a staged row can go
// stale (a later sparse update rewrites the owner row while the window is
// open); the WindowQueue's dirty-row tracker repairs exactly those rows
// before consumption, which keeps every depth bit-identical to batch-by-
// batch stepping. Stagings are ring entries like plans: AsyncGatherer.
// Release recycles the buffer (and the plan it shares its slot map with).
type Staging struct {
	dim  int
	buf  []float32
	slot map[int32]int
	plan *GatherPlan // recycled together with the staging
	// widths records each slot's serving precision (empty = all fp32; sized
	// only when the plan staged warm-tier hits). The repair path consults it
	// to re-run the fused kernel instead of re-fetching.
	widths []Width
}

// Lookup returns the staged copy of row, if the plan fetched it.
//
//hotline:hotpath
func (st *Staging) Lookup(row int32) ([]float32, bool) {
	i, ok := st.slot[row]
	if !ok {
		return nil, false
	}
	return st.buf[i*st.dim : (i+1)*st.dim], true
}

// Has reports whether the plan staged row, without touching the buffer (so
// it is safe while fetches are still in flight — the slot map is immutable
// after planning).
//
//hotline:hotpath
func (st *Staging) Has(row int32) bool {
	_, ok := st.slot[row]
	return ok
}

// Rows returns the staged row count.
func (st *Staging) Rows() int { return len(st.slot) }

// Width returns the precision a staged row is served at (WidthFP32 for rows
// that crossed the fabric exactly, and for rows the plan never staged).
//
//hotline:hotpath
func (st *Staging) Width(row int32) Width {
	if len(st.widths) == 0 {
		return WidthFP32
	}
	i, ok := st.slot[row]
	if !ok {
		return WidthFP32
	}
	return st.widths[i]
}

// fillQuant runs the fused dequantize-gather kernel over the plan's
// warm-tier rows: each row's current authoritative bits are fetched into its
// staging slot and round-tripped through the entry's width in place —
// exactly the value a coherent quantized replica would serve — with zero
// allocations (the kernels tolerate aliasing). Runs on the planning
// goroutine before any fabric job is enqueued, so it never races worker
// fills (slots are disjoint) or sparse updates (same thread).
//
//hotline:hotpath
func (st *Staging) fillQuant(fetch FetchFunc) {
	p := st.plan
	for i, row := range p.quant {
		s := st.slot[row]
		dst := st.buf[s*st.dim : (s+1)*st.dim]
		fetch(row, dst)
		dequantRowInto(dst, dst, p.qwidth[i])
		st.widths[s] = p.qwidth[i]
	}
}

// FetchFunc copies one owner-resident row into its staging slot. It runs on
// gather workers concurrently with compute, so it must only read the
// underlying storage (which is stable while a window is in flight: sparse
// updates join any window whose staged rows they touch before mutating).
type FetchFunc func(row int32, dst []float32)

// Handle tracks one submitted gather window. Await may be called exactly
// once per window; the handle is recycled into the engine's ring when it
// returns.
type Handle struct {
	g       *AsyncGatherer
	staging *Staging

	mu      sync.Mutex
	cond    sync.Cond // cond.L = &mu
	pending int
}

// jobDone retires one per-owner fetch job.
func (h *Handle) jobDone() {
	h.mu.Lock()
	h.pending--
	if h.pending == 0 {
		h.cond.Broadcast()
	}
	h.mu.Unlock()
}

// Await blocks until every fetch of the window has landed and returns the
// staging buffer. The calling goroutine helps drain outstanding queue
// buffers instead of idling, and the blocked wall time is accounted as
// exposed gather time — the part of the fabric traffic the overlap failed
// to hide. The handle is recycled on return; pass the staging to
// AsyncGatherer.Release once its rows are consumed.
func (h *Handle) Await() *Staging {
	start := time.Now() //hotline:allow detorder measured exposed-gather wall; never feeds math
	for _, q := range h.g.queues {
		q.drainOn()
	}
	h.mu.Lock()
	for h.pending > 0 {
		h.cond.Wait()
	}
	h.mu.Unlock()
	st := h.staging
	h.g.noteExposed(time.Since(start), h) //hotline:allow detorder measured exposed-gather wall; never feeds math
	return st
}

// OverlapStats aggregates what the async engine moved and how much of it
// the overlap hid. All durations are wall-clock measurements of the
// functional layer (they feed scenario reports and the measured
// exposed-gather fraction, never any training math).
type OverlapStats struct {
	// Windows counts submitted prefetch windows; SyncWindows counts
	// synchronous (non-prefetched) staged gathers.
	Windows, SyncWindows int64
	// PrefetchRows / PrefetchBytes total the fabric volume issued
	// asynchronously; SyncRows / SyncBytes the volume fetched inline.
	PrefetchRows, SyncRows   int64
	PrefetchBytes, SyncBytes int64
	// RepairRows / RepairBytes total the dirty-row delta repairs a depth-k
	// pipeline shipped: rows staged at issue time that a later sparse
	// update rewrote, re-fetched from their owner shard before the window
	// was consumed. Depth k <= 2 never repairs (no update intervenes);
	// deeper lookahead trades this extra traffic for more hiding time.
	RepairRows, RepairBytes int64
	// StaleRows counts distinct dirtied rows consumed WITHOUT repair under
	// the opt-in stale mode (Service.SetStaleReads) — the rows whose
	// staleness the mn-depth scenario prices in accuracy.
	StaleRows int64
	// GatherBusy is the summed time workers spent copying rows (both modes).
	GatherBusy time.Duration
	// Exposed is the summed wall time consumers were blocked in Await —
	// gather time the overlap did not hide.
	Exposed time.Duration
	// SyncGather is the summed wall time of inline staged gathers, i.e. the
	// fully exposed cost the synchronous path pays for the same traffic.
	SyncGather time.Duration
}

// ExposedGather returns the total gather wall time this engine left on the
// consumer's critical path: inline (synchronous) staged gathers plus the
// time consumers were blocked in Await. Comparing it between an
// overlap-off and an overlap-on run of the same workload yields the
// exposed-gather fraction the mn-overlap/mn-depth scenarios feed the
// timing models.
func (s OverlapStats) ExposedGather() time.Duration { return s.SyncGather + s.Exposed }

// ExposedFrac returns this engine's exposed share of the given synchronous
// gather baseline, clamped to [0, 1] (0 = fully hidden).
func ExposedFrac(overlap, sync OverlapStats) float64 {
	base := sync.ExposedGather()
	if base <= 0 {
		return 0
	}
	f := float64(overlap.ExposedGather()) / float64(base)
	if f > 1 {
		f = 1
	}
	return f
}

// fetchJob is one owner node's contribution to a gather window. svc routes
// the fetch through the service's transport (timing it into the gather wall
// meter); a nil svc (engine built standalone via NewAsyncGatherer) fetches
// straight through the FetchFunc like the in-proc transport would.
type fetchJob struct {
	svc   *Service
	table int
	owner int
	rows  []int32
	fetch FetchFunc
	h     *Handle
}

// engineCounters is the stats cell shared by the engine and its persistent
// drainer goroutines. It deliberately lives outside AsyncGatherer so a
// parked drainer keeps only its queue (and this cell) alive — the engine
// itself stays collectable, and its cleanup closes the queues.
type engineCounters struct {
	mu    sync.Mutex
	stats OverlapStats
}

//
//hotline:stats-writer
func (c *engineCounters) noteBusy(d time.Duration) {
	c.mu.Lock()
	c.stats.GatherBusy += d
	c.mu.Unlock()
}

// gatherQueue is one owner node's job queue, drained by a persistent
// goroutine: producers append to the fill buffer and wake the drainer with
// a cond signal — no per-window goroutine spawn, so the steady-state wake
// path performs zero allocations. Consumers blocked in Await help drain
// via drainOn. Drained buffers recycle through a small free list.
type gatherQueue struct {
	mu              sync.Mutex
	cond            sync.Cond // wakes the persistent drainer; cond.L = &mu
	fill            []fetchJob
	free            [][]fetchJob // drained buffers awaiting reuse
	c               *engineCounters
	started, closed bool
}

func newGatherQueue(c *engineCounters) *gatherQueue {
	q := &gatherQueue{c: c}
	q.cond.L = &q.mu
	return q
}

// enqueue appends a job and wakes the persistent drainer (starting it on
// first use, so sync-only engines never park a goroutine).
func (q *gatherQueue) enqueue(j fetchJob) {
	q.mu.Lock()
	if q.fill == nil {
		q.fill = q.takeFreeLocked()
	}
	q.fill = append(q.fill, j)
	if !q.started && !q.closed {
		q.started = true
		go q.drainLoop()
	} else {
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// takeFreeLocked pops a recycled buffer (nil when none).
func (q *gatherQueue) takeFreeLocked() []fetchJob {
	if n := len(q.free); n > 0 {
		b := q.free[n-1][:0]
		q.free = q.free[:n-1]
		return b
	}
	return nil
}

// swapLocked takes the filled buffer, leaving a recycled one in its place.
// Returns nil when the queue is empty.
func (q *gatherQueue) swapLocked() []fetchJob {
	if len(q.fill) == 0 {
		return nil
	}
	jobs := q.fill
	q.fill = q.takeFreeLocked()
	return jobs
}

// finish recycles a drained buffer. The retired jobs are cleared first: a
// stale fetchJob still points at its service (whose gather field is the
// engine) and at the window's tables, and the engine's runtime cleanup holds
// the queues — left in place, every engine that ever prefetched would be
// reachable from its own cleanup and never collected, service and shards
// with it.
func (q *gatherQueue) finish(jobs []fetchJob) {
	clear(jobs)
	q.mu.Lock()
	q.free = append(q.free, jobs[:0])
	q.mu.Unlock()
}

// drainLoop is the persistent drainer: it parks on the cond when the queue
// is dry and exits only when the engine is closed.
func (q *gatherQueue) drainLoop() {
	for {
		q.mu.Lock()
		for len(q.fill) == 0 && !q.closed {
			q.cond.Wait()
		}
		jobs := q.swapLocked()
		if jobs == nil { // closed and dry
			q.started = false
			q.cond.Broadcast() // wake close() waiting for retirement
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		runJobs(jobs, q.c)
		q.finish(jobs)
	}
}

// drainOn lets a consumer goroutine (inside Await) help with queued work
// instead of idling.
func (q *gatherQueue) drainOn() {
	q.mu.Lock()
	jobs := q.swapLocked()
	q.mu.Unlock()
	if jobs == nil {
		return
	}
	runJobs(jobs, q.c)
	q.finish(jobs)
}

// close wakes the persistent drainer and blocks until it has drained the
// queue and retired. Waiting matters for shutdown ordering: the service
// closes its transport right after the engine, and an in-flight window's
// fetches must reach the fabric before it goes away (the CleanShutdown
// conformance contract).
func (q *gatherQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	for q.started {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// runJobs executes fetches and accounts worker busy time. Transport errors
// are recorded on the owning service (Service.FabricErr); the job still
// retires so Await never deadlocks on a dead peer.
func runJobs(jobs []fetchJob, c *engineCounters) {
	start := time.Now() //hotline:allow detorder measured drainer-busy wall; never feeds math
	for _, j := range jobs {
		st := j.h.staging
		if j.svc != nil {
			j.svc.transportFetch(j.table, j.owner, j.rows, st, j.fetch)
		} else {
			for _, row := range j.rows {
				i := st.slot[row]
				j.fetch(row, st.buf[i*st.dim:(i+1)*st.dim])
			}
		}
		j.h.jobDone()
	}
	c.noteBusy(time.Since(start)) //hotline:allow detorder measured drainer-busy wall; never feeds math
}

// AsyncGatherer executes gather plans off the consumer's critical path: one
// job queue per owner node (the node streaming its resident rows over the
// fabric), drained by a persistent per-queue goroutine that parks when its
// queue runs dry. Submit issues a window; the returned Handle's Await
// blocks only for whatever the overlap failed to hide. GatherSync runs the
// same plan inline, timing the fully exposed cost the synchronous path
// pays.
//
// Plans, stagings and handles pool through a PrefetchRing that grows to the
// pipeline's peak window count — one window per table, depth k iterations
// deep — and is then reused verbatim, so the steady-state prefetch path
// allocates nothing. Consumers return a window with Release when they have
// read its staged rows. Drainer goroutines start lazily on the first
// Submit and are retired by Close (or automatically when the engine
// becomes unreachable).
type AsyncGatherer struct {
	queues []*gatherQueue
	c      *engineCounters
	ring   *PrefetchRing
	// svc, when the engine is attached to a service (EnableAsyncGather),
	// routes fetches through the service's transport; nil engines fetch
	// straight through the FetchFunc. Read-only after attach.
	svc *Service
}

// NewAsyncGatherer builds an engine for a topology of `nodes` owner nodes.
func NewAsyncGatherer(nodes int) *AsyncGatherer {
	if nodes < 1 {
		panic(fmt.Sprintf("shard: async gatherer over %d nodes", nodes))
	}
	g := &AsyncGatherer{
		queues: make([]*gatherQueue, nodes),
		c:      &engineCounters{},
		ring:   NewPrefetchRing(),
	}
	for i := range g.queues {
		g.queues[i] = newGatherQueue(g.c)
	}
	// A drained queue references only its (cleared) buffers and the shared
	// counters, so the engine itself stays collectable; retire the drainers
	// when it goes away.
	runtime.AddCleanup(g, func(queues []*gatherQueue) {
		for _, q := range queues {
			q.close()
		}
	}, g.queues)
	return g
}

// Close retires the persistent drainer goroutines. Windows submitted after
// Close still complete (consumers drain them in Await); Close is optional —
// an unreachable engine's drainers are retired by the runtime cleanup.
func (g *AsyncGatherer) Close() {
	for _, q := range g.queues {
		q.close()
	}
}

// Ring exposes the engine's prefetch ring (plans, stagings and handles pool
// through it).
func (g *AsyncGatherer) Ring() *PrefetchRing { return g.ring }

// AcquirePlan hands out a recycled (or new) plan for a window over the
// engine's topology. The service's PlanGather calls this so plans cycle
// through the ring instead of being allocated per accounting pass.
func (g *AsyncGatherer) AcquirePlan(table int) *GatherPlan {
	return g.ring.Plan(table, len(g.queues))
}

// Release recycles a consumed window: the staging buffer and the plan whose
// slot map it shares go back into the ring. Callers must not touch the
// staging (or any row slice obtained from Lookup) afterwards. Releasing is
// optional — an unreleased window is simply collected by the GC — so
// external users of Submit/GatherSync that predate the ring keep working.
func (g *AsyncGatherer) Release(st *Staging) { g.ring.ReleaseStaging(st) }

// Submit issues one gather window asynchronously and returns its Handle.
// The submitting goroutine yields once so the drainers get scheduled even
// on a single-CPU host — the window then streams while the caller's compute
// runs, which is exactly the overlap the paper's pipeline performs in
// hardware.
//
//hotline:stats-writer
func (g *AsyncGatherer) Submit(plan *GatherPlan, dim int, fetch FetchFunc) *Handle {
	h := g.ring.Handle()
	h.g = g
	h.staging = g.ring.Staging(plan, dim)
	if len(plan.quant) > 0 {
		h.staging.fillQuant(fetch)
	}
	jobs := 0
	for _, rows := range plan.perOwner {
		if len(rows) > 0 {
			jobs++
		}
	}
	g.c.mu.Lock()
	g.c.stats.Windows++
	g.c.stats.PrefetchRows += int64(plan.FabricRows())
	g.c.stats.PrefetchBytes += plan.Bytes
	g.c.mu.Unlock()
	if jobs == 0 {
		return h
	}
	h.mu.Lock()
	h.pending = jobs
	h.mu.Unlock()
	for owner, rows := range plan.perOwner {
		if len(rows) == 0 {
			continue
		}
		g.queues[owner].enqueue(fetchJob{svc: g.svc, table: plan.Table, owner: owner, rows: rows, fetch: fetch, h: h})
	}
	runtime.Gosched()
	return h
}

// GatherSync executes a plan inline on the calling goroutine and returns
// the filled staging buffer. The wall time is accounted as synchronous
// (fully exposed) gather time — the baseline the overlap is measured
// against.
//
//hotline:stats-writer
func (g *AsyncGatherer) GatherSync(plan *GatherPlan, dim int, fetch FetchFunc) *Staging {
	start := time.Now() //hotline:allow detorder measured sync-gather wall; never feeds math
	st := g.ring.Staging(plan, dim)
	if len(plan.quant) > 0 {
		st.fillQuant(fetch)
	}
	for owner, rows := range plan.perOwner {
		if len(rows) == 0 {
			continue
		}
		if g.svc != nil {
			g.svc.transportFetch(plan.Table, owner, rows, st, fetch)
			continue
		}
		for _, row := range rows {
			i := st.slot[row]
			fetch(row, st.buf[i*st.dim:(i+1)*st.dim])
		}
	}
	el := time.Since(start) //hotline:allow detorder measured sync-gather wall; never feeds math
	g.c.mu.Lock()
	g.c.stats.SyncWindows++
	g.c.stats.SyncRows += int64(plan.FabricRows())
	g.c.stats.SyncBytes += plan.Bytes
	g.c.stats.SyncGather += el
	g.c.mu.Unlock()
	return st
}

// Stats snapshots the overlap counters.
func (g *AsyncGatherer) Stats() OverlapStats {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	return g.c.stats
}

// ResetStats zeroes the overlap counters (e.g. after warm-up windows).
func (g *AsyncGatherer) ResetStats() {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	g.c.stats = OverlapStats{}
}

// noteRepair accounts one window's dirty-row delta repair.
//
//hotline:stats-writer
func (g *AsyncGatherer) noteRepair(rows int, bytes int64) {
	g.c.mu.Lock()
	g.c.stats.RepairRows += int64(rows)
	g.c.stats.RepairBytes += bytes
	g.c.mu.Unlock()
}

// noteStale accounts dirtied rows consumed without repair (stale mode).
//
//hotline:stats-writer
func (g *AsyncGatherer) noteStale(rows int) {
	g.c.mu.Lock()
	g.c.stats.StaleRows += int64(rows)
	g.c.mu.Unlock()
}

// noteExposed accounts one Await's blocked wall time and recycles the
// handle.
//
//hotline:stats-writer
func (g *AsyncGatherer) noteExposed(d time.Duration, h *Handle) {
	g.c.mu.Lock()
	g.c.stats.Exposed += d
	g.c.mu.Unlock()
	g.ring.ReleaseHandle(h)
}
