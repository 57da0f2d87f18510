package model

import (
	"math"
	"runtime"
	"testing"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/metrics"
	"hotline/internal/nn"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// tiny returns a small DLRM config that trains fast in tests.
func tiny() data.Config {
	return data.Config{
		Name: "tiny", RM: "T1",
		DenseFeatures: 4, NumTables: 3,
		FullRowsPerTable:   []int64{1000, 500, 200},
		ScaledRowsPerTable: []int{100, 50, 20},
		LookupsPerTable:    1, ZipfS: 1.1, DriftPerDay: 0.1, HotFracRows: 0.3,
		EmbedDim: 8,
		BotMLP:   []int{4, 16, 8},
		TopMLP:   []int{16, 1},
		Samples:  512, Seed: 42, ScaleFactor: 10, FullSizeGB: 0.001,
	}
}

// tinySeq returns a small TBSM config.
func tinySeq() data.Config {
	c := tiny()
	c.Name = "tinyseq"
	c.TimeSteps = 5
	c.Attention = true
	return c
}

func TestNewDeterministic(t *testing.T) {
	a, b := New(tiny(), 7), New(tiny(), 7)
	if !DenseStateEqual(a, b) || !SparseStateEqual(a, b) {
		t.Fatal("same seed must give identical models")
	}
	c := New(tiny(), 8)
	if DenseStateEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestForwardShape(t *testing.T) {
	cfg := tiny()
	m := New(cfg, 1)
	g := data.NewGenerator(cfg)
	b := g.NextBatch(16)
	logits := m.Forward(b)
	if logits.Rows != 16 || logits.Cols != 1 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestTBSMForwardShape(t *testing.T) {
	cfg := tinySeq()
	m := New(cfg, 1)
	if !m.IsTBSM() {
		t.Fatal("config with TimeSteps>1 must build TBSM")
	}
	g := data.NewGenerator(cfg)
	b := g.NextBatch(8)
	logits := m.Forward(b)
	if logits.Rows != 8 || logits.Cols != 1 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestTrainStepReducesLossDLRM(t *testing.T) {
	cfg := tiny()
	m := New(cfg, 2)
	g := data.NewGenerator(cfg)
	b := g.NextBatch(256)
	first := m.TrainStep(b, 0.1)
	var last float64
	for i := 0; i < 60; i++ {
		last = m.TrainStep(b, 0.1)
	}
	if last > first-0.02 {
		t.Fatalf("loss did not fall: first %g last %g", first, last)
	}
}

func TestTrainStepReducesLossTBSM(t *testing.T) {
	cfg := tinySeq()
	m := New(cfg, 2)
	g := data.NewGenerator(cfg)
	b := g.NextBatch(128)
	first := m.TrainStep(b, 0.1)
	var last float64
	for i := 0; i < 60; i++ {
		last = m.TrainStep(b, 0.1)
	}
	if last > first-0.01 {
		t.Fatalf("TBSM loss did not fall: first %g last %g", first, last)
	}
}

func TestTrainingImprovesAUC(t *testing.T) {
	cfg := tiny()
	cfg.Samples = 2048
	m := New(cfg, 3)
	g := data.NewGenerator(cfg)
	eval := data.NewGenerator(cfg)
	eval.SetDay(0)
	evalBatch := eval.NextBatch(1024)

	before := metrics.AUC(m.Predict(evalBatch), evalBatch.Labels)
	for i := 0; i < 40; i++ {
		m.TrainStep(g.NextBatch(128), 0.1)
	}
	after := metrics.AUC(m.Predict(evalBatch), evalBatch.Labels)
	if after < before+0.02 || after < 0.55 {
		t.Fatalf("AUC should improve: before %.3f after %.3f", before, after)
	}
}

// Model-level gradient check for the full DLRM composite.
func TestModelGradCheck(t *testing.T) {
	cfg := tiny()
	m := New(cfg, 4)
	g := data.NewGenerator(cfg)
	b := g.NextBatch(6)

	loss := func() float64 {
		return nn.BCELossOnly(m.Forward(b), b.Labels, nn.ReduceSum)
	}
	m.ZeroAll()
	logits := m.Forward(b)
	_, grad := nn.BCEWithLogits(logits, b.Labels, nn.ReduceSum)
	m.Backward(grad, 1)

	params := m.DenseParams()
	for _, pi := range []int{0, len(params) - 1} {
		p := params[pi]
		for _, i := range []int{0, len(p.Value.Data) / 2} {
			const eps = 1e-2
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := loss()
			p.Value.Data[i] = orig - eps
			lm := loss()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(p.Grad.Data[i])) > 2e-2*math.Max(0.1, math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g numeric %g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

// Gradient accumulation: two Backward calls over µ-batches must equal one
// Backward over the full batch — the heart of the Hotline parity claim.
func TestMicroBatchGradientAccumulation(t *testing.T) {
	cfg := tiny()
	b := data.NewGenerator(cfg).NextBatch(10)
	popIdx := []int{0, 2, 4, 6, 8}
	nonIdx := []int{1, 3, 5, 7, 9}

	full := New(cfg, 9)
	full.ZeroAll()
	logits := full.Forward(b)
	_, g := nn.BCEWithLogits(logits, b.Labels, nn.ReduceSum)
	full.Backward(g, 1)

	split := New(cfg, 9)
	split.ZeroAll()
	for _, idx := range [][]int{popIdx, nonIdx} {
		sub := b.Subset(idx)
		lg := split.Forward(sub)
		_, sg := nn.BCEWithLogits(lg, sub.Labels, nn.ReduceSum)
		split.Backward(sg, 1)
	}

	pf, ps := full.DenseParams(), split.DenseParams()
	for i := range pf {
		if d := tensor.MaxAbsDiff(pf[i].Grad, ps[i].Grad); d > 2e-4 {
			t.Fatalf("param %s grads diverge by %g", pf[i].Name, d)
		}
	}
}

func TestApplySparseClearsPending(t *testing.T) {
	cfg := tiny()
	m := New(cfg, 5)
	b := data.NewGenerator(cfg).NextBatch(4)
	logits := m.Forward(b)
	_, g := nn.BCEWithLogits(logits, b.Labels, nn.ReduceMean)
	m.Backward(g, 1)
	if len(m.pendingSparse) == 0 {
		t.Fatal("Backward should stash sparse grads")
	}
	table0 := m.Tables[0].(*embedding.Table)
	before := table0.W.Clone()
	m.ApplyUpdate(0.5)
	if len(m.pendingSparse) != 0 {
		t.Fatal("ApplyUpdate must clear the stash")
	}
	if tensor.MaxAbsDiff(before, table0.W) == 0 {
		t.Fatal("ApplyUpdate should change embeddings")
	}
	after := table0.W.Clone()
	m.ApplyUpdate(0.5) // no sparse gradient left to apply
	if tensor.MaxAbsDiff(after, table0.W) != 0 {
		t.Fatal("a second ApplyUpdate must leave the embeddings alone")
	}
}

func TestBackwardScale(t *testing.T) {
	cfg := tiny()
	b := data.NewGenerator(cfg).NextBatch(8)

	a := New(cfg, 11)
	a.ZeroAll()
	la := a.Forward(b)
	_, ga := nn.BCEWithLogits(la, b.Labels, nn.ReduceSum)
	a.Backward(ga, 0.125)

	c := New(cfg, 11)
	c.ZeroAll()
	lc := c.Forward(b)
	_, gc := nn.BCEWithLogits(lc, b.Labels, nn.ReduceMean) // mean = sum/8
	c.Backward(gc, 1)

	pa, pc := a.DenseParams(), c.DenseParams()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].Grad, pc[i].Grad); d > 1e-5 {
			t.Fatalf("scaled grads diverge by %g", d)
		}
	}
}

func TestParameterCounts(t *testing.T) {
	cfg := tiny()
	m := New(cfg, 1)
	dense, sparse := m.ParameterCounts()
	if sparse != (100+50+20)*8 {
		t.Fatalf("sparse params %d", sparse)
	}
	if dense <= 0 {
		t.Fatal("dense params must be positive")
	}
}

func TestTable2ModelsConstruct(t *testing.T) {
	for _, cfg := range data.AllDatasets() {
		m := New(cfg, 1)
		dense, sparse := m.ParameterCounts()
		if dense == 0 || sparse == 0 {
			t.Fatalf("%s: empty model", cfg.Name)
		}
		if cfg.RM == "RM1" && !m.IsTBSM() {
			t.Fatal("RM1 must be TBSM")
		}
		if cfg.RM != "RM1" && m.IsTBSM() {
			t.Fatalf("%s must be DLRM", cfg.RM)
		}
		// one real forward/backward pass on a small batch
		g := data.NewGenerator(cfg)
		b := g.NextBatch(4)
		logits := m.Forward(b)
		_, grad := nn.BCEWithLogits(logits, b.Labels, nn.ReduceMean)
		m.Backward(grad, 1)
		m.ApplyUpdate(0.01)
	}
}

// TestShardEmbeddingsCopiesNoRows: sharding routes the tables it is given, it
// does not re-pack them. On the Kaggle config at 4 nodes the only memory
// ShardEmbeddings may take is the routing state RegisterTable sizes — an
// owner entry, a cache-index slot per node and the dedup stamps, together
// about 24 B a row — against the 64 B a row the tables hold; a second row store
// would allocate more than the tables themselves.
func TestShardEmbeddingsCopiesNoRows(t *testing.T) {
	cfg := data.CriteoKaggle()
	m := New(cfg, 1)
	var held, rows int64
	for _, b := range m.Tables {
		held += b.SizeBytes()
		rows += int64(b.NumRows())
	}
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	defer svc.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.ShardEmbeddings(svc)
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	if got >= held {
		t.Fatalf("ShardEmbeddings allocated %d B for tables holding %d B: the rows were copied", got, held)
	}
	t.Logf("ShardEmbeddings allocated %d B (%.1f B/row) for tables holding %d B", got, float64(got)/float64(rows), held)
}
