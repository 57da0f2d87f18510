package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hotline/internal/accel"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// result is what one run of one workload reports.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string // what failed, for the operator
	probeMS   float64  // median speed probe of the run; probeRefNS/1e6 on the reference box
	tracer    *tracer  // the traced instance's spans, when traced
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// trainSlice is steps [lo, hi) of a trainRun with the probes around them.
type trainSlice struct {
	lo, hi  int
	bracket bracket
}

// trainRun is the trainer's side of a timed window, one entry per step.
type trainRun struct {
	losses     []float64
	stepNS     []float64 // wall of each StepLookahead call
	start, end []time.Time
	slices     []trainSlice
}

func (t *trainRun) step(in *instance) {
	start := time.Now()
	loss := in.step()
	end := time.Now()
	t.stepNS = append(t.stepNS, float64(end.Sub(start)))
	t.start, t.end = append(t.start, start), append(t.end, end)
	t.losses = append(t.losses, loss)
}

// stepNSRef returns every step's time scaled to reference speed.
func (t *trainRun) stepNSRef() []float64 {
	out := make([]float64, 0, len(t.stepNS))
	for _, s := range t.slices {
		for _, ns := range t.stepNS[s.lo:s.hi] {
			out = append(out, ns*s.bracket.speed())
		}
	}
	return out
}

// samplesPerSec is the median over the slices of throughput at reference
// speed, each slice timed from its first step's start to its last step's end.
func (t *trainRun) samplesPerSec(batch int) float64 {
	var rates []float64
	for _, s := range t.slices {
		if s.hi > s.lo {
			wall := t.end[s.hi-1].Sub(t.start[s.lo])
			rates = append(rates, float64((s.hi-s.lo)*batch)/wall.Seconds()/s.bracket.speed())
		}
	}
	return median(rates)
}

// Counters of the training window, read from the program's public stats.
const (
	cLookups = iota
	cLocal
	cHits
	cMisses
	cQuantHits
	cDequantRows
	cGatherRows
	cGatherBytes
	cScatterBytes
	cFillBytes
	cEvictions
	cGatherWallNS
	cScatterWallNS
	cRepairRows
	cGatherBusyNS
	cExposedNS
	cWindows
	cSyncWindows
	cFrames
	cTxBytes
	cRxBytes
	cPopular
	cInputs
	cMallocs
	cAllocBytes
	nCounters
)

type counters [nCounters]int64

func (in *instance) counters() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	c[cPopular], c[cInputs] = in.tr.PopularInputs, in.tr.TotalInputs
	c[cTxBytes], c[cRxBytes] = in.wire.txBytes.Load(), in.wire.rxBytes.Load()
	if in.svc == nil {
		return c
	}
	st, ov := in.svc.Snapshot(), in.svc.Gatherer().Stats()
	c[cLookups], c[cLocal], c[cHits], c[cMisses] = st.Lookups, st.Local, st.CacheHits, st.CacheMisses
	c[cQuantHits], c[cDequantRows] = st.QuantHits, st.DequantRows
	c[cGatherRows], c[cGatherBytes], c[cScatterBytes] = st.GatherRows, st.GatherBytes, st.ScatterBytes
	c[cFillBytes], c[cEvictions] = st.FillBytes, st.Evictions
	c[cGatherWallNS], c[cScatterWallNS] = int64(st.GatherWall), int64(st.ScatterWall)
	c[cRepairRows], c[cGatherBusyNS], c[cExposedNS] = ov.RepairRows, int64(ov.GatherBusy), int64(ov.ExposedGather())
	c[cWindows], c[cSyncWindows] = ov.Windows, ov.SyncWindows
	if in.fab != nil {
		for _, s := range in.fab.Servers {
			ns := s.Stats()
			c[cFrames] += ns.FetchFrames + ns.PushFrames
		}
	}
	return c
}

// addSince adds the counters' growth since before to c.
func (c *counters) addSince(in *instance, before counters) {
	now := in.counters()
	for i := range c {
		c[i] += now[i] - before[i]
	}
}

// measured is everything one instance's timed phases produced.
type measured struct {
	train       trainRun
	a, b        []loadRun   // the slices of the two serve phases
	window      counters    // growth over the training window
	serve       shard.Stats // serve-side traffic of both serve phases
	lookups     int64       // embedding lookups the training window issued
	stepsBefore int         // steps the instance ran before the window
	heapMB      float64
}

// trainSlice runs n steps as one slice of the training window.
func (m *measured) trainSlice(in *instance, pr *prober, n int) {
	s := trainSlice{lo: len(m.train.losses), bracket: bracket{pr.last()}}
	before := in.counters()
	for i := 0; i < n; i++ {
		m.lookups += in.lookups[in.next]
		m.train.step(in)
	}
	m.window.addSince(in, before)
	s.hi = len(m.train.losses)
	s.bracket[1] = pr.run()
	m.train.slices = append(m.train.slices, s)
}

// timedPhases runs the workload's phases on a set-up instance, each cut into
// w.slices probe-bracketed slices: the dedicated training phase, the
// closed-loop serve phase A, then the open-loop phase B (with the trainer
// beside it when the workload says so). The serve phases read through srv:
// the instance itself, or its in-proc twin when the workload says so.
func timedPhases(in *instance, seed uint64, pr *prober) (measured, error) {
	var m measured
	w := in.w
	m.stepsBefore = in.stepped

	in.setPhase(phaseTrain)
	for s := 0; s < w.slices && w.trainSteps > 0; s++ {
		m.trainSlice(in, pr, w.trainSteps/w.slices)
	}

	if !w.trainBeside {
		// The training window ends here; the serve tail's scratch (and the
		// twin, if any) is not the trainer's heap.
		m.heapMB = liveHeapMB(pr)
	}
	srv := in
	if w.serveTwin {
		twin, err := setUp(w.inprocTwin(), seed, false, pr)
		if err != nil {
			return m, err
		}
		srv = twin
	}
	var serve0 shard.Stats
	if srv.svc != nil {
		serve0 = srv.svc.ServeSnapshot()
	}
	in.setPhase(phaseServeA)
	per := w.reqA / w.slices
	for s := 0; s < w.slices; s++ {
		before := pr.last()
		r := closedLoop(srv, clientsA, s*per, per)
		r.bracket = bracket{before, pr.run()}
		m.a = append(m.a, r)
	}

	in.setPhase(phaseServeB)
	per = w.reqB / w.slices
	for s := 0; s < w.slices; s++ {
		probeBefore := pr.last()
		var r loadRun
		if w.trainBeside {
			lo := len(m.train.losses)
			before := in.counters()
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					m.lookups += in.lookups[in.next]
					in.trainLocked(&m.train)
				}
			}()
			r = openLoop(srv, replicas, s*per, per, w.rateB)
			close(stop)
			<-done
			m.window.addSince(in, before)
			r.bracket = bracket{probeBefore, pr.run()}
			m.train.slices = append(m.train.slices, trainSlice{lo, len(m.train.losses), r.bracket})
		} else {
			r = openLoop(srv, replicas, s*per, per, w.rateB)
			r.bracket = bracket{probeBefore, pr.run()}
		}
		m.b = append(m.b, r)
	}
	if srv.svc != nil {
		m.serve = srv.svc.ServeSnapshot().Sub(serve0)
	}
	if srv != in {
		srv.close()
	}
	if w.trainBeside {
		m.heapMB = liveHeapMB(pr)
	}
	return m, nil
}

// liveHeapMB is the heap in use, less the prober's own, after two forced
// collections: the second frees what the first left in sync.Pool victim
// caches.
func liveHeapMB(pr *prober) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int(ms.HeapInuse)-pr.heapBytes()) / 1e6
}

// trainLocked runs one step under the server's write lock.
func (in *instance) trainLocked(t *trainRun) {
	if in.tracer != nil {
		id := in.tracer.begin(spanServeTrain, -1)
		defer in.tracer.end(id)
	}
	in.srv.Train(func() { t.step(in) })
}

func (in *instance) setPhase(p uint8) {
	if in.tracer != nil {
		in.tracer.setPhase(p)
	}
}

// callUSRef pools the Server.Predict call times of a serve phase, scaled to
// reference speed.
func callUSRef(runs []loadRun) []float64 {
	var out []float64
	for _, r := range runs {
		for _, us := range r.callUS {
			out = append(out, us*r.bracket.speed())
		}
	}
	return out
}

// latencyMSRef pools the open-loop latencies of a serve phase at reference
// speed. Only the time inside Server.Predict is scaled: it is CPU work, the
// player's own or the trainer's it waited behind. How late the player
// started the request is the generator's doing and stays as measured.
func latencyMSRef(runs []loadRun) []float64 {
	var out []float64
	for _, r := range runs {
		for i, late := range r.lateMS {
			out = append(out, late+r.callUS[i]/1e3*r.bracket.speed())
		}
	}
	return out
}

// lateMS pools how late the players started their requests, as measured.
func lateMS(runs []loadRun) []float64 {
	var out []float64
	for _, r := range runs {
		out = append(out, r.lateMS...)
	}
	return out
}

// requestsPerSec is the median over the slices of the completion rate at
// reference speed.
func requestsPerSec(runs []loadRun) float64 {
	rates := make([]float64, len(runs))
	for i, r := range runs {
		rates[i] = float64(r.n) / r.wall.Seconds() / r.bracket.speed()
	}
	return median(rates)
}

// runWorkload runs one workload once. Untraced it reports the end-to-end
// metrics; traced it reports the per-layer metrics from a quarter of the ops
// run twice, without and with the decorators.
//
// The measured instance is the first the process builds, and the check and
// the timed-only set-up follow it. With the check first, fabric-unix read 201
// or 237 MB of live heap depending on the seed: on some seeds the coordinator
// side of a closed earlier instance (its bags' tables, its transport's push
// buffers) stayed reachable through any number of forced collections.
func runWorkload(w workload, seed uint64, traced bool) (*result, error) {
	res := &result{workload: w.name, metrics: make(map[string]float64)}
	pr := newProber()
	full := w
	if traced {
		w = w.scaled(0.25)
	}
	plain, err := setUp(w, seed, false, pr)
	if err != nil {
		return nil, err
	}
	base, err := timedPhases(plain, seed, pr)
	if err != nil {
		plain.close()
		return nil, err
	}
	account(res, plain, &base)
	plain.close()

	if !traced {
		chk, err := check(full, seed, res, pr)
		if err != nil {
			return nil, err
		}
		retraces(res, w.name, &base, chk.losses)
		// A set-up that is only timed: three samples make setup_s a median.
		extra, err := setUp(w, seed, false, pr)
		if err != nil {
			return nil, err
		}
		extra.close()
		endToEnd(res, w, &base, median([]float64{plain.setup.Seconds(), chk.setup.Seconds(), extra.setup.Seconds()}))
		res.probeMS = median(pr.ns) / 1e6
		return res, nil
	}

	in, err := setUp(w, seed, true, pr)
	if err != nil {
		return nil, err
	}
	defer in.close()
	m, err := timedPhases(in, seed, pr)
	if err != nil {
		return nil, err
	}
	account(res, in, &m)
	chk, err := check(full, seed, res, pr)
	if err != nil {
		return nil, err
	}
	retraces(res, w.name, &base, chk.losses)
	retraces(res, w.name, &m, chk.losses)
	// The decorators change nothing. (Beside live requests the two trainers
	// take different numbers of steps; the shared prefix must still agree.)
	n := min(len(m.train.losses), len(base.train.losses))
	if !slices.Equal(m.train.losses[:n], base.train.losses[:n]) {
		res.fail("%s: traced losses differ from untraced losses", w.name)
	}
	perLayer(res, in, &m, &base, chk)
	res.tracer = in.tracer
	res.probeMS = median(pr.ns) / 1e6
	return res, nil
}

// account books a measured instance's ops and failures: every step and
// request counts as attempted; a non-finite loss, a fabric error or a failed
// request counts as failed.
func account(res *result, in *instance, m *measured) {
	res.attempted += len(m.train.losses)
	for i, l := range m.train.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.fail("%s: step %d loss %v", in.w.name, i, l)
		}
	}
	if n := in.fabricErrs(); n > 0 {
		res.failed += n
		res.failures = append(res.failures, fmt.Sprintf("%s: %d fabric errors: %v", in.w.name, n, in.svc.FabricErr()))
	}
	for _, r := range slices.Concat(m.a, m.b) {
		res.attempted += r.n
		if r.failed > 0 {
			res.failed += r.failed
			res.failures = append(res.failures, fmt.Sprintf("%s: %d requests failed", in.w.name, r.failed))
		}
	}
}

// retraces fails the run unless the timed losses equal the check run's: same
// seed, same inputs, so the timed run must retrace the checked one.
func retraces(res *result, name string, m *measured, checkLosses []float64) {
	n := min(len(checkLosses), len(m.train.losses))
	if !slices.Equal(m.train.losses[:n], checkLosses[:n]) {
		res.fail("%s: timed losses differ from the check run's", name)
	}
}

// checked is what the correctness check hands to the timed runs.
type checked struct {
	setup  time.Duration
	losses []float64 // the first checkSteps losses after set-up
	// fabricOverhead is 1 - in-proc twin step p50 / unix step p50 over the
	// check steps (fabric-unix only).
	fabricOverhead float64
}

// checkSequence is the op sequence every checked instance runs: 16 requests
// through the server and through the model (bit-equal), then checkSteps
// training steps in checkSlices probe-bracketed slices.
func checkSequence(in *instance, res *result, pr *prober) trainRun {
	for i := 0; i < 16; i++ {
		b := in.corpus.Requests[i*len(in.corpus.Requests)/16].Batch
		got := slices.Clone(in.srv.Predict(b))
		want := in.m.Predict(b)
		res.attempted++
		if !slices.Equal(got, want) {
			res.fail("%s: Server.Predict differs from Model.Predict on request %d", in.w.name, i)
		}
	}
	var m measured
	for s := 0; s < checkSlices; s++ {
		m.trainSlice(in, pr, in.w.checkSteps/checkSlices)
	}
	t := m.train
	res.attempted += len(t.losses)
	for i, l := range t.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.fail("%s: check step %d loss %v", in.w.name, i, l)
		}
	}
	if n := in.fabricErrs(); n > 0 {
		res.fail("%s: %d fabric errors in the check run: %v", in.w.name, n, in.svc.FabricErr())
	}
	return t
}

// check is the untimed correctness phase, run after the timed phases. Its
// instance is a full set-up, so it doubles as one setup_s sample.
func check(w workload, seed uint64, res *result, pr *prober) (checked, error) {
	in, err := setUp(w, seed, false, pr)
	if err != nil {
		return checked{}, err
	}
	defer in.close()
	run := checkSequence(in, res, pr)
	out := checked{setup: in.setup, losses: run.losses}

	switch {
	case w.fabric == "unix":
		// The socket fabric must be invisible to the math and to the
		// traffic counters: compare with the same workload in-proc.
		twin, err := setUp(w.inprocTwin(), seed, false, pr)
		if err != nil {
			return checked{}, err
		}
		defer twin.close()
		ref := checkSequence(twin, res, pr)
		if !slices.Equal(run.losses, ref.losses) {
			res.fail("%s: losses differ from the in-proc twin's", w.name)
		}
		if a, b := in.svc.Snapshot().WithoutWall(), twin.svc.Snapshot().WithoutWall(); a != b {
			res.fail("%s: traffic counters differ from the in-proc twin's:\n unix   %+v\n inproc %+v", w.name, a, b)
		}
		out.fabricOverhead = 1 - median(ref.stepNSRef())/median(run.stepNSRef())
	case w.fabric == "inproc" && w.quant == shard.QuantOff:
		// Sharding only relocates rows: an unsharded executor on the same
		// seed and batches must produce the same bits.
		ref := train.NewHotline(model.New(in.cfg, seed), learningRate)
		ref.Depth = pipelineDepth
		var losses []float64
		for i := 0; i < warmSteps+w.checkSteps; i++ {
			p := i % w.pool
			losses = append(losses, ref.StepLookahead(in.pool[p], in.pool[p+1:p+pipelineDepth]))
		}
		if !slices.Equal(run.losses, losses[warmSteps:]) {
			res.fail("%s: sharded losses differ from the unsharded reference's", w.name)
		}
		if d := model.MaxStateDiff(ref.M, in.m); d != 0 {
			res.fail("%s: sharded state differs from the unsharded reference by %g", w.name, d)
		}
	}
	return out, nil
}

// endToEnd fills in the metrics a user of the system sees, from an untraced
// run only.
func endToEnd(res *result, w workload, m *measured, setupS float64) {
	res.metrics["setup_s"] = setupS
	res.metrics["train_samples_per_s"] = m.train.samplesPerSec(w.batch)
	res.metrics["step_ms_p50"] = median(m.train.stepNSRef()) / 1e6
	res.metrics["serve_capacity_rps"] = requestsPerSec(m.a)
	res.metrics["serve_ms_p50"] = median(latencyMSRef(m.b))
	// Raw latencies against the SLO; a failed request misses.
	within, sent := 0, 0
	for _, r := range m.b {
		sent += r.n
		for i, l := range r.latencyMS {
			if l <= sloMillis && !r.bad[i] {
				within++
			}
		}
	}
	res.metrics["serve_within_slo_share"] = float64(within) / float64(sent)
	res.metrics["live_heap_mb"] = m.heapMB
}

// perLayer fills in the per-layer metrics from the traced instance (spans
// and counters), the untraced run of the same ops (allocations, overhead)
// and a replay of the accelerator on the same batches.
func perLayer(res *result, in *instance, m, base *measured, chk checked) {
	steps := float64(len(m.train.losses))
	perStep := func(v float64) float64 {
		if steps == 0 {
			return 0
		}
		return v / steps
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name string, v float64) { res.metrics[name] = v }
	c := func(i int) float64 { return float64(m.window[i]) }

	set("data.gen_ms_per_batch", in.genMillis)

	// Accelerator: replay learn + classify on a twin warmed by the same
	// batches in the same order.
	learnNS, classifyNS := replayAccel(in, m.stepsBefore, len(m.train.losses))
	set("accel.learn_us_per_step", perStep(learnNS/1e3))
	set("accel.classify_us_per_step", perStep(classifyNS/1e3))
	set("accel.popular_share", share(c(cPopular), c(cInputs)))

	// Spans of the training window.
	phase := uint8(phaseTrain)
	if in.w.trainBeside {
		phase = phaseServeB
	}
	spans := in.tracer.spans
	self := selfTimes(spans)
	selfByName := make(map[string]float64)
	var fetchNS, pushNS []float64
	var wireWriteNS, wireReadNS float64
	for i, s := range spans {
		if s.Phase != phase {
			continue
		}
		selfByName[s.Name] += float64(self[i])
		switch s.Name {
		case spanFetch:
			fetchNS = append(fetchNS, float64(s.End-s.Start))
		case spanPush:
			pushNS = append(pushNS, float64(s.End-s.Start))
		case spanConnWrite:
			wireWriteNS += float64(s.End - s.Start)
		case spanConnRead:
			wireReadNS += float64(s.End - s.Start)
		}
	}
	set("embedding.forward_us_per_step", perStep(selfByName[spanForward]/1e3))
	set("embedding.backward_us_per_step", perStep(selfByName[spanBackward]/1e3))
	set("embedding.sparse_update_us_per_step", perStep(selfByName[spanSparseUpdate]/1e3))
	set("embedding.prefetch_us_per_step", perStep(selfByName[spanPrefetch]/1e3))
	set("embedding.lookups_per_step", perStep(float64(m.lookups)))
	// What is left of the step outside the bag calls, less the accelerator
	// replay: nn, model, train and tensor.
	set("nn.dense_us_per_step", perStep((selfByName[spanStep]-learnNS-classifyNS)/1e3))
	set("train.step_ms_p99", quantile(m.train.stepNSRef(), 0.99)/1e6)
	baseSteps := float64(len(base.train.losses))
	set("train.allocs_per_step", share(float64(base.window[cMallocs]), baseSteps))
	set("train.bytes_per_step", share(float64(base.window[cAllocBytes]), baseSteps))

	// Exact traffic counts of the training window.
	set("shard.cache_hit_share", share(c(cHits), c(cHits)+c(cMisses)))
	set("shard.local_share", share(c(cLocal), c(cLookups)))
	set("shard.quant_hit_share", share(c(cQuantHits), c(cHits)))
	set("shard.dequant_rows_per_step", perStep(c(cDequantRows)))
	set("shard.gather_rows_per_step", perStep(c(cGatherRows)))
	set("shard.gather_kb_per_step", perStep(c(cGatherBytes)/1024))
	set("shard.scatter_kb_per_step", perStep(c(cScatterBytes)/1024))
	set("shard.fill_kb_per_step", perStep(c(cFillBytes)/1024))
	set("shard.evictions_per_step", perStep(c(cEvictions)))
	set("shard.repair_rows_per_step", perStep(c(cRepairRows)))

	// Measured fabric walls of the training window.
	set("shard.gather_wall_us_per_step", perStep(c(cGatherWallNS)/1e3))
	set("shard.scatter_wall_us_per_step", perStep(c(cScatterWallNS)/1e3))
	set("shard.gather_busy_us_per_step", perStep(c(cGatherBusyNS)/1e3))
	set("shard.exposed_gather_us_per_step", perStep(c(cExposedNS)/1e3))
	set("shard.exposed_share", share(c(cExposedNS), c(cGatherWallNS)))
	set("shard.prefetch_window_share", share(c(cWindows), c(cWindows)+c(cSyncWindows)))

	// The wire: zero unless rows cross a socket (the in-proc transport is
	// spanned too, but a memcpy is not a fabric call).
	if in.fab == nil {
		fetchNS, pushNS = nil, nil
	}
	set("shard.fetch_calls_per_step", perStep(float64(len(fetchNS))))
	set("shard.push_calls_per_step", perStep(float64(len(pushNS))))
	set("shard.fetch_us_per_call_p50", median(fetchNS)/1e3)
	set("shard.push_us_per_call_p50", median(pushNS)/1e3)
	set("shard.wire_frames_per_step", perStep(c(cFrames)))
	set("shard.wire_tx_kb_per_step", perStep(c(cTxBytes)/1024))
	set("shard.wire_rx_kb_per_step", perStep(c(cRxBytes)/1024))
	set("shard.wire_write_us_per_step", perStep(wireWriteNS/1e3))
	set("shard.wire_read_wait_us_per_step", perStep(wireReadNS/1e3))
	redials := 0
	if in.svc != nil {
		for _, h := range in.svc.PeerHealth() {
			redials += h.Redials
		}
	}
	set("shard.fabric_errors", float64(in.fabricErrs()))
	set("shard.redials", float64(redials))
	set("shard.fabric_step_overhead_share", chk.fabricOverhead)

	// The read path: both serve phases.
	requests := 0
	for _, r := range slices.Concat(m.a, m.b) {
		requests += r.n
	}
	predictUS := median(callUSRef(m.a))
	set("serve.predict_us_p50", predictUS)
	set("serve.train_block_us_p50", median(callUSRef(m.b))-predictUS)
	set("serve.latency_ms_p90", quantile(latencyMSRef(m.b), 0.90))
	set("serve.latency_ms_p99", quantile(latencyMSRef(m.b), 0.99))
	set("serve.late_start_ms_p99", quantile(lateMS(m.b), 0.99))
	set("serve.cache_hit_share", m.serve.HitRate())
	set("serve.gather_kb_per_request", share(float64(m.serve.GatherBytes)/1024, float64(requests)))
	set("serve.stale_rows", float64(m.serve.StaleServeRows))

	set("trace.overhead_share", share(median(m.train.stepNSRef()), median(base.train.stepNSRef()))-1)
}

// replayAccel times the accelerator's learning and classification for the n
// steps after the first `before` ones, on a twin that sees every batch exactly
// as the executor's accelerator did (the executor learns and classifies each
// batch once, in stream order, whatever the lookahead).
func replayAccel(in *instance, before, n int) (learnNS, classifyNS float64) {
	twin := accel.New(accel.DefaultConfig())
	seen := 0
	for i := 0; i < before+n; i++ {
		b := in.pool[i%in.w.pool]
		t0 := time.Now()
		if seen < in.tr.LearnSamples {
			twin.LearnBatch(b)
			seen += b.Size()
		} else {
			twin.MaybeLearn(b)
		}
		t1 := time.Now()
		twin.Classify(b)
		if i >= before {
			learnNS += float64(t1.Sub(t0))
			classifyNS += float64(time.Since(t1))
		}
	}
	return learnNS, classifyNS
}

// median returns the interpolated median of vs (0 when empty); vs is not
// reordered.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 when empty); vs is not reordered.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
