package shard

import (
	"runtime"
	"sync"
	"time"
)

// OverlapStats aggregates what the gather engine moved and how much of it
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

// fetchJob is one owner node's contribution to a gather window: the rows
// w.perOwner[owner], fetched through the service's transport into w. It
// runs on a drainer concurrently with compute; the rows it reads are stable
// while the window is in flight (sparse updates join any window whose staged
// rows they touch before mutating).
type fetchJob struct {
	w     *Staging
	owner int
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
// stale fetchJob still points at its window, whose engine's service holds the
// registered tables and their row views, and the engine's runtime cleanup
// holds the queues — left in place, every engine that ever prefetched would
// be reachable from its own cleanup and never collected, service and tables
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
		w := j.w
		w.g.svc.transportFetch(w.table, j.owner, w.perOwner[j.owner], w)
		w.jobDone()
	}
	c.noteBusy(time.Since(start)) //hotline:allow detorder measured drainer-busy wall; never feeds math
}

// AsyncGatherer is a service's gather engine (Service.Gatherer): it executes
// planned windows off the consumer's critical path — one job queue per owner
// node (the node streaming its resident rows over the fabric), drained by a
// persistent per-queue goroutine that parks when its queue runs dry. Submit
// issues a window; its Await blocks only for whatever the overlap failed to
// hide. GatherSync runs the same window inline, timing the fully exposed
// cost the synchronous path pays.
//
// Windows pool through the engine: the pool grows to the pipeline's peak
// window count — one window per table, depth k iterations deep — and is then
// reused verbatim, so the steady-state prefetch path allocates nothing.
// Drainer goroutines start lazily on the first Submit, so a service that
// only records, or only gathers synchronously, parks none; they are retired
// by Close (or automatically when the engine becomes unreachable).
type AsyncGatherer struct {
	svc    *Service // fetches route through its transport; read-only
	queues []*gatherQueue
	c      *engineCounters

	poolMu sync.Mutex
	pool   []*Staging // released windows awaiting reuse
}

// newAsyncGatherer builds the engine of svc: one queue per owner node.
func newAsyncGatherer(svc *Service) *AsyncGatherer {
	g := &AsyncGatherer{
		svc:    svc,
		queues: make([]*gatherQueue, svc.cfg.Nodes),
		c:      &engineCounters{},
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

// acquire hands out a released (or new) window, empty, keyed to table, with a
// slot table for a plan over at most lookups rows: the accounting walk takes
// one at the first row that needs staging, a WindowQueue one to stand for a
// prefetch that planned nothing.
func (g *AsyncGatherer) acquire(table, lookups int) *Staging {
	var w *Staging
	g.poolMu.Lock()
	if n := len(g.pool); n > 0 {
		w = g.pool[n-1]
		g.pool = g.pool[:n-1]
	}
	g.poolMu.Unlock()
	if w == nil {
		w = &Staging{g: g, perOwner: make([][]int32, len(g.queues))}
		w.cond.L = &w.mu
	}
	w.table = table
	w.reserve(lookups)
	return w
}

// Submit issues one planned window asynchronously; Await it before reading
// its rows. The submitting goroutine yields once so the drainers get
// scheduled even on a single-CPU host — the window then streams while the
// caller's compute runs, which is exactly the overlap the paper's pipeline
// performs in hardware.
//
//hotline:stats-writer
func (g *AsyncGatherer) Submit(w *Staging) {
	w.fillQuant()
	jobs := 0
	for _, rows := range w.perOwner {
		if len(rows) > 0 {
			jobs++
		}
	}
	g.c.mu.Lock()
	g.c.stats.Windows++
	g.c.stats.PrefetchRows += int64(w.fabricRows())
	g.c.stats.PrefetchBytes += w.bytes
	g.c.mu.Unlock()
	w.inFlight = true
	if jobs == 0 {
		return
	}
	w.mu.Lock()
	w.pending = jobs
	w.mu.Unlock()
	for owner, rows := range w.perOwner {
		if len(rows) > 0 {
			g.queues[owner].enqueue(fetchJob{w: w, owner: owner})
		}
	}
	runtime.Gosched()
}

// GatherSync fills a planned window inline on the calling goroutine. The
// wall time is accounted as synchronous (fully exposed) gather time — the
// baseline the overlap is measured against.
//
//hotline:stats-writer
func (g *AsyncGatherer) GatherSync(w *Staging) {
	start := time.Now() //hotline:allow detorder measured sync-gather wall; never feeds math
	w.fillQuant()
	for owner, rows := range w.perOwner {
		if len(rows) > 0 {
			g.svc.transportFetch(w.table, owner, rows, w)
		}
	}
	el := time.Since(start) //hotline:allow detorder measured sync-gather wall; never feeds math
	g.c.mu.Lock()
	g.c.stats.SyncWindows++
	g.c.stats.SyncRows += int64(w.fabricRows())
	g.c.stats.SyncBytes += w.bytes
	g.c.stats.SyncGather += el
	g.c.mu.Unlock()
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

// noteExposed accounts one Await's blocked wall time.
//
//hotline:stats-writer
func (g *AsyncGatherer) noteExposed(d time.Duration) {
	g.c.mu.Lock()
	g.c.stats.Exposed += d
	g.c.mu.Unlock()
}
