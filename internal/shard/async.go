package shard

import (
	"runtime"
	"sync"
	"time"
)

// fetchJob is one owner node's contribution to a gather window: the rows
// w.perOwner[owner], fetched through the service's transport into w. It
// runs on a drainer concurrently with compute; the rows it reads are stable
// while the window is in flight (sparse updates join any window whose staged
// rows they touch before mutating).
type fetchJob struct {
	w     *Staging
	owner int
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
	started, closed bool
}

func newGatherQueue() *gatherQueue {
	q := &gatherQueue{}
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
		runJobs(jobs)
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
	runJobs(jobs)
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

// runJobs executes fetches and counts their wall and the worker's busy time
// into the service, which it reaches through the jobs' window, so a parked
// drainer holds no engine. Transport errors are recorded on the owning
// service (Service.FabricErr); the job still retires so Await never
// deadlocks on a dead peer.
func runJobs(jobs []fetchJob) {
	start := time.Now() //hotline:allow detorder measured drainer-busy wall; never feeds math
	svc := jobs[0].w.g.svc
	var st Stats
	for _, j := range jobs {
		w := j.w
		wall, _ := svc.transportFetch(w.table, j.owner, w.perOwner[j.owner], w)
		st.GatherWall += wall
		w.jobDone()
	}
	st.GatherBusy = time.Since(start) //hotline:allow detorder measured drainer-busy wall; never feeds math
	svc.count(false, &st)
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
	svc    *Service // fetches route through its transport and count into it; read-only
	queues []*gatherQueue

	poolMu sync.Mutex
	pool   []*Staging // released windows awaiting reuse

	// open holds the submitted windows not yet released: the ones a sparse
	// update may have to mark dirty (Service.MarkDirty).
	openMu sync.Mutex
	open   []*Staging
}

// newAsyncGatherer builds the engine of svc: one queue per owner node.
func newAsyncGatherer(svc *Service) *AsyncGatherer {
	g := &AsyncGatherer{
		svc:    svc,
		queues: make([]*gatherQueue, svc.cfg.Nodes),
	}
	for i := range g.queues {
		g.queues[i] = newGatherQueue()
	}
	// A drained queue references only its (cleared) buffers, so the engine
	// itself stays collectable; retire the drainers when it goes away.
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
		w = &Staging{g: g, perOwner: make([][]int32, len(g.queues))}
		w.cond.L = &w.mu
	}
	w.table = table
	w.reserve(lookups)
	return w
}

// Submit issues one planned window asynchronously and adds it to the open
// set until its Release; Await (or Consume) it before reading its rows. The
// submitting goroutine yields once so the drainers get scheduled even on a
// single-CPU host — the window then streams while the caller's compute runs,
// which is exactly the overlap the paper's pipeline performs in hardware.
func (g *AsyncGatherer) Submit(w *Staging) {
	g.openMu.Lock()
	g.open = append(g.open, w)
	g.openMu.Unlock()
	w.fillQuant()
	jobs := 0
	for _, rows := range w.perOwner {
		if len(rows) > 0 {
			jobs++
		}
	}
	g.svc.count(false, &Stats{Windows: 1, PrefetchRows: int64(w.fabricRows()), PrefetchBytes: w.bytes})
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
func (g *AsyncGatherer) GatherSync(w *Staging) {
	start := time.Now() //hotline:allow detorder measured sync-gather wall; never feeds math
	w.fillQuant()
	st := Stats{SyncWindows: 1, SyncRows: int64(w.fabricRows()), SyncBytes: w.bytes}
	for owner, rows := range w.perOwner {
		if len(rows) > 0 {
			wall, _ := g.svc.transportFetch(w.table, owner, rows, w)
			st.GatherWall += wall
		}
	}
	st.SyncGather = time.Since(start) //hotline:allow detorder measured sync-gather wall; never feeds math
	g.svc.count(false, &st)
}

// Stats snapshots the service's training counters, which hold the engine's
// (Stats.Windows through Stats.SyncGather).
func (g *AsyncGatherer) Stats() Stats { return g.svc.Snapshot() }
