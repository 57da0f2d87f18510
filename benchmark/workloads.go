package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/pipeline"
	"hotline/internal/serve"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// Conditions every workload shares.
const (
	shardNodes    = 4
	pipelineDepth = 2
	poolBatches   = 256 // distinct pre-generated batches, cycled in order
	warmSteps     = 16
	replicas      = 2
	requestBatch  = 32
	corpusDays    = 4
	corpusPerDay  = 64
	learningRate  = 0.1
	sloMillis     = 25.0
)

// clientsA is the closed loop's client count. One, not one per replica: a
// two-client rate does not follow the single-threaded speed probe (with the
// probe at 0.6 it had lost only a fifth, so scaling overshot by a third and ten
// runs spread up to 0.21); one client's rate follows it within 6%. The open
// loop keeps one player per replica.
const clientsA = 1

// workload is one set of inputs the benchmark runs. Op counts are for
// -seconds 15 -scale 1 (about 9 s of training, 3 to 5 s of phase A and 3 s of
// phase B; 7 s and 11 s in serve-mixed); see the README for why each workload
// exists.
type workload struct {
	name string
	why  string
	// cfg builds the dataset/model shape.
	cfg func() data.Config
	// batch is the training mini-batch size.
	batch int
	// fabric is "" (unsharded), "inproc" or "unix".
	fabric string
	// cacheShare is each node's device cache as a share of the scaled hot
	// budget (pipeline.DefaultShardCacheBytes).
	cacheShare float64
	quant      shard.QuantMode
	// trainSteps is the dedicated timed training phase; 0 takes the train
	// metrics from the trainer that runs beside serve phase B.
	trainSteps int
	// checkSteps is the length of the untimed reference comparison.
	checkSteps int
	// reqA is the closed-loop phase (clientsA clients, no trainer); reqB the
	// open-loop phase at rateB requests/s with 2 players.
	reqA, reqB int
	rateB      float64
	// trainBeside runs one trainer goroutine back to back under Server.Train
	// during phase B.
	trainBeside bool
	// serveTwin runs the serve phases on the workload's in-proc twin, set up
	// after the training window and closed when phase B ends. Reads that cross
	// sockets are a chain of goroutine wake-ups, whose cost on the shared box
	// drifts by 30% within a run and does not follow the speed probe, so no
	// bound the contract allows holds them; see the README.
	serveTwin bool
	// pool is how many distinct pre-generated batches are cycled in order;
	// perDay how many requests each of the corpus's drift days holds; slices
	// how many probe-bracketed slices each timed phase is cut into.
	pool, perDay, slices int
}

// kaggleScaled is Criteo Kaggle RM2 with the scaled MLPs (13-64-16 / 64-1).
func kaggleScaled() data.Config {
	c := data.CriteoKaggle()
	c.BotMLP = []int{13, 64, 16}
	c.TopMLP = []int{64, 1}
	return c
}

// synMH is the multi-hot synthetic model: 8 tables x 8 pooled lookups x dim
// 64 behind a 13->64 bottom MLP and a single-layer top, so embedding work
// dominates the step.
func synMH(zipf float64) func() data.Config {
	return func() data.Config {
		rows := []int{24000, 16000, 12000, 8000, 6000, 4000, 3000, 2000}
		full := make([]int64, len(rows))
		for i, r := range rows {
			full[i] = int64(r) * 1000
		}
		return data.Config{
			Name: "SYN-MH", RM: "SYN-MH",
			DenseFeatures: 13, NumTables: len(rows),
			FullRowsPerTable: full, ScaledRowsPerTable: rows,
			LookupsPerTable: 8, ZipfS: zipf, DriftPerDay: 0.10, HotFracRows: 0.20,
			EmbedDim: 64,
			BotMLP:   []int{13, 64},
			TopMLP:   []int{1},
			Samples:  4096, ScaleFactor: 1000, FullSizeGB: 19,
		}
	}
}

var workloads = []workload{
	{
		name: "dense-local",
		why:  "unsharded Kaggle RM2 step: dense kernels dominate, the fabric is absent; the single-worker baseline",
		cfg:  kaggleScaled, batch: 256, pool: poolBatches, perDay: corpusPerDay, slices: slicesPerPhase,
		trainSteps: 576, checkSteps: 32,
		reqA: 8000, reqB: 640, rateB: 200,
	},
	{
		name: "sparse-inproc",
		why:  "multi-hot SYN-MH on 4 in-proc shards, Zipf 1.6, full cache: bag kernels, gather planning, EAL; no wire",
		cfg:  synMH(1.6), batch: 256, pool: poolBatches, perDay: corpusPerDay, slices: slicesPerPhase,
		fabric: "inproc", cacheShare: 1,
		trainSteps: 1440, checkSteps: 128,
		reqA: 9600, reqB: 640, rateB: 200,
	},
	{
		name: "fabric-unix",
		why:  "SYN-MH at Zipf 1.05, 1/16 cache, mixed-precision tiers over unix sockets: wire, codec, tiered cache, dequant",
		cfg:  synMH(1.05), batch: 256, pool: poolBatches, perDay: corpusPerDay, slices: slicesPerPhase,
		fabric: "unix", cacheShare: 1.0 / 16, quant: shard.QuantMixed,
		trainSteps: 480, checkSteps: 96,
		reqA: 2400, reqB: 640, rateB: 200, serveTwin: true,
	},
	{
		name: "serve-mixed",
		why:  "Kaggle RM2 on 4 in-proc shards: closed-loop capacity, then 120 req/s open loop beside a back-to-back trainer",
		cfg:  kaggleScaled, batch: 64, pool: poolBatches, perDay: corpusPerDay, slices: slicesPerPhase,
		fabric: "inproc", cacheShare: 1,
		checkSteps: 32,
		reqA:       9600, reqB: 1280, rateB: 120, trainBeside: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inprocTwin is the same workload over the in-proc transport: same model,
// caches and batches, no sockets.
func (w workload) inprocTwin() workload {
	w.fabric, w.serveTwin = "inproc", false
	return w
}

// scaled returns the workload with its op counts multiplied by f. Phases stay
// a whole number of slices.
func (w workload) scaled(f float64) workload {
	mul := func(n, unit int) int {
		if n == 0 {
			return 0
		}
		return max(unit, int(math.Round(float64(n)*f/float64(unit)))*unit)
	}
	w.trainSteps = mul(w.trainSteps, w.slices)
	w.checkSteps = mul(w.checkSteps, checkSlices)
	w.reqA = mul(w.reqA, w.slices)
	w.reqB = mul(w.reqB, w.slices)
	return w
}

// small shrinks the batch pool, the corpus and the slice count, so that tests
// set up and run in a fraction of a second. Call it before scaled.
func (w workload) small() workload {
	w.pool, w.perDay, w.slices = 32, 8, 4
	return w
}

// instance is one fully set-up workload: everything between workload start
// and the first timed op.
type instance struct {
	w      workload
	cfg    data.Config
	m      *model.Model
	tr     *train.HotlineTrainer
	svc    *shard.Service     // nil when unsharded
	fab    *shard.LocalFabric // nil unless fabric == "unix"
	srv    *serve.Server
	corpus *serve.Corpus

	// pool holds w.pool distinct batches plus the first depth-1 again,
	// so pool[i+1:i+depth] is always a valid lookahead. The executor matches
	// staged lookahead by pointer, so batches are never copied.
	pool    []*data.Batch
	lookups []int64 // embedding rows each pool batch looks up
	next    int     // pool cursor
	stepped int     // steps run so far

	tracer *tracer
	wire   wireCounters

	genMillis float64       // mean Generator.NextBatch wall per pool batch
	setup     time.Duration // at reference speed
}

// setUp builds the workload from the seed; with traced set the timing
// decorators are installed. The program sees only the generated batches. The
// set-up time is scaled to reference speed by the probes around it; the probe
// after it opens the first timed slice's bracket.
func setUp(w workload, seed uint64, traced bool, pr *prober) (*instance, error) {
	probeBefore := pr.run()
	start := time.Now()
	in := &instance{w: w, cfg: w.cfg()}
	in.cfg.Seed = seed ^ 0x9E3779B97F4A7C15
	if traced {
		in.tracer = newTracer(shardNodes)
	}

	in.m = model.New(in.cfg, seed)
	if w.fabric == "" {
		in.tr = train.NewHotline(in.m, learningRate)
	} else {
		if err := in.shard(); err != nil {
			return nil, err
		}
	}
	in.tr.Depth = pipelineDepth
	if traced {
		traceBags(in.m, in.tracer)
	}

	gen := data.NewGenerator(in.cfg)
	genStart := time.Now()
	in.pool = make([]*data.Batch, w.pool, w.pool+pipelineDepth-1)
	in.lookups = make([]int64, w.pool)
	for i := range in.pool {
		in.pool[i] = gen.NextBatch(w.batch)
		for _, tab := range in.pool[i].Sparse {
			for _, idx := range tab {
				in.lookups[i] += int64(len(idx))
			}
		}
	}
	in.genMillis = float64(time.Since(genStart)) / 1e6 / float64(w.pool)
	in.pool = append(in.pool, in.pool[:pipelineDepth-1]...)
	in.corpus = serve.BuildCorpus(in.cfg, corpusDays, w.perDay, requestBatch)

	for i := 0; i < warmSteps; i++ {
		in.step()
	}
	in.srv = serve.NewServer(in.m, replicas)
	var probs []float32
	for i := range in.corpus.Requests {
		probs = in.srv.PredictInto(probs, in.corpus.Requests[i].Batch)
	}
	raw := time.Since(start)
	in.setup = time.Duration(float64(raw) * bracket{probeBefore, pr.run()}.speed())
	return in, nil
}

// shard builds the 4-node service, its fabric and the sharded executor.
func (in *instance) shard() error {
	w := in.w
	cache := int64(float64(pipeline.DefaultShardCacheBytes(in.cfg)) * w.cacheShare)
	var hot shard.HotClassifier
	if w.quant == shard.QuantMixed {
		// The tiers need a popularity signal: half the budget learns the
		// exact fp32 hot set, the open int8 warm tier fills the rest.
		prof := data.ProfileEpoch(data.NewGenerator(in.cfg), 512)
		hot = embedding.PlacementFromCounts(prof.Counts(), in.cfg.NumTables, in.cfg.EmbedDim, cache/2)
	}
	in.svc = shard.New(shard.Config{
		Nodes: shardNodes, CacheBytes: cache, RowBytes: int64(in.cfg.EmbedDim) * 4, Quant: w.quant,
	}, hot)
	tr := shard.NewInproc()
	if w.fabric == "unix" {
		var wrap func(int, net.Conn) net.Conn
		if in.tracer != nil {
			wrap = func(owner int, c net.Conn) net.Conn {
				return &tracedConn{Conn: c, tr: in.tracer, wire: &in.wire, owner: owner}
			}
		}
		fab, err := shard.StartLocalFabric(shardNodes, "unix", 0, wrap)
		if err != nil {
			return fmt.Errorf("start unix fabric: %w", err)
		}
		in.fab = fab
		tr = fab.Transport
	}
	if in.tracer != nil {
		tr = &tracedTransport{Transport: tr, tr: in.tracer}
	}
	in.svc.SetTransport(tr)
	in.tr = train.NewHotlineSharded(in.m, learningRate, in.svc)
	return nil
}

// step trains on the next pool batch with the following ones as lookahead.
func (in *instance) step() float64 {
	i := in.next
	in.next = (i + 1) % in.w.pool
	in.stepped++
	if in.tracer != nil {
		id := in.tracer.begin(spanStep, -1)
		defer in.tracer.end(id)
	}
	return in.tr.StepLookahead(in.pool[i], in.pool[i+1:i+pipelineDepth])
}

// fabricErrs returns how many fabric errors the service recorded.
func (in *instance) fabricErrs() int {
	if in.svc == nil {
		return 0
	}
	return in.svc.FabricErrCount()
}

// close stops the drainers, the transport and the node servers.
func (in *instance) close() {
	if in.svc != nil {
		in.svc.Close()
	}
	if in.fab != nil {
		in.fab.Close()
	}
}
