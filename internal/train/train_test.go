package train

import (
	"math"
	"testing"

	"hotline/internal/data"
	"hotline/internal/metrics"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

func tinyCfg() data.Config {
	return data.Config{
		Name: "tiny-train", RM: "T1",
		DenseFeatures: 4, NumTables: 3,
		FullRowsPerTable:   []int64{2000, 1000, 400},
		ScaledRowsPerTable: []int{200, 100, 40},
		LookupsPerTable:    1, ZipfS: 1.2, DriftPerDay: 0.1, HotFracRows: 0.3,
		EmbedDim: 8,
		BotMLP:   []int{4, 16, 8},
		TopMLP:   []int{16, 1},
		Samples:  2048, Seed: 77, ScaleFactor: 10, FullSizeGB: 0.001,
	}
}

func TestBaselineStepReducesLoss(t *testing.T) {
	cfg := tinyCfg()
	tr := NewBaseline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	b := gen.NextBatch(256)
	first := tr.Step(b)
	var last float64
	for i := 0; i < 50; i++ {
		last = tr.Step(b)
	}
	if last > first-0.01 {
		t.Fatalf("baseline loss did not fall: %g -> %g", first, last)
	}
}

func TestHotlineClassifiesAndTrains(t *testing.T) {
	cfg := tinyCfg()
	tr := NewHotline(model.New(cfg, 2), 0.1)
	gen := data.NewGenerator(cfg)
	for i := 0; i < 20; i++ {
		tr.Step(gen.NextBatch(128))
	}
	if tr.TotalInputs != 20*128 {
		t.Fatalf("total inputs = %d", tr.TotalInputs)
	}
	if f := tr.PopularFraction(); f <= 0.2 || f > 1 {
		t.Fatalf("popular fraction %.2f implausible", f)
	}
}

// The core parity claim (Eq. 5): baseline and Hotline executors trained on
// identical streams stay numerically together (differences only from float
// summation order).
func TestParityBaselineVsHotline(t *testing.T) {
	cfg := tinyCfg()
	rep := Parity(cfg, 9, RunConfig{BatchSize: 64, Iters: 30, EvalSize: 512})
	if rep.MaxStateDiff > 1e-3 {
		t.Fatalf("executors diverged: max diff %g", rep.MaxStateDiff)
	}
	if math.Abs(rep.Baseline.AUC-rep.Hotline.AUC) > 5e-3 {
		t.Fatalf("AUC diverged: %v vs %v", rep.Baseline.AUC, rep.Hotline.AUC)
	}
	if math.Abs(rep.Baseline.LogLoss-rep.Hotline.LogLoss) > 5e-3 {
		t.Fatalf("logloss diverged: %v vs %v", rep.Baseline.LogLoss, rep.Hotline.LogLoss)
	}
	if rep.String() == "" {
		t.Fatal("report should render")
	}
}

// TestLRIsLive: LR is a field the caller may assign between steps, on both
// executors and under both rules — the rate reaches the rule as an argument
// of every update, nothing caches it. Two steps at 0.1, then two at 0.05,
// against a model the test itself steps at those rates (bit for bit for the
// baseline, to float-reduction order for the µ-batch executor), and against
// the same executor left at 0.1, which the assignment must have moved.
func TestLRIsLive(t *testing.T) {
	cfg := tinyCfg()
	const seed, tol = 5, 1e-5
	batches := data.NewGenerator(cfg).NextBatches(4, 128)
	schedule := []float32{0.1, 0.1, 0.05, 0.05}
	constant := []float32{0.1, 0.1, 0.1, 0.1}
	executors := []struct {
		name  string
		exact bool
		build func(m *model.Model) (Trainer, *float32)
	}{
		{"baseline", true, func(m *model.Model) (Trainer, *float32) {
			tr := NewBaseline(m, 0.1)
			return tr, &tr.LR
		}},
		{"hotline", false, func(m *model.Model) (Trainer, *float32) {
			tr := NewHotline(m, 0.1)
			tr.LearnSamples = 128 // classify for real from the second step on
			return tr, &tr.LR
		}},
	}
	for _, rule := range updateRules {
		ref := model.New(cfg, seed).SetOptimizer(rule.build)
		for i, b := range batches {
			ref.TrainStep(b, schedule[i])
		}
		for _, ex := range executors {
			run := func(rates []float32) *model.Model {
				tr, lr := ex.build(model.New(cfg, seed).SetOptimizer(rule.build))
				for i, b := range batches {
					*lr = rates[i]
					tr.StepLookahead(b, nil)
				}
				return tr.Model()
			}
			got := run(schedule)
			if d := model.MaxStateDiff(ref, got); d > tol || (ex.exact && d != 0) {
				t.Errorf("%s/%s: assigning LR mid-run left the state %g from the reference", ex.name, rule.name, d)
			}
			if d := model.MaxStateDiff(run(constant), got); d < 100*tol {
				t.Errorf("%s/%s: halving LR moved the state by only %g", ex.name, rule.name, d)
			}
		}
	}
}

// Per-step loss parity: on the same batch from the same state, the Hotline
// µ-batch loss must equal the baseline loss (Eq. 5 directly).
func TestPerStepLossParity(t *testing.T) {
	cfg := tinyCfg()
	base := NewBaseline(model.New(cfg, 5), 0.05)
	hot := NewHotline(model.New(cfg, 5), 0.05)
	genA, genB := data.NewGenerator(cfg), data.NewGenerator(cfg)
	for i := 0; i < 15; i++ {
		la := base.Step(genA.NextBatch(64))
		lb := hot.Step(genB.NextBatch(64))
		if math.Abs(la-lb) > 1e-4 {
			t.Fatalf("iter %d: baseline loss %g vs hotline %g", i, la, lb)
		}
	}
}

func TestRunProducesCurve(t *testing.T) {
	cfg := tinyCfg()
	tr := NewBaseline(model.New(cfg, 3), 0.1)
	curve := Run(tr, data.NewGenerator(cfg), RunConfig{BatchSize: 64, Iters: 30, EvalEvery: 10, EvalSize: 256})
	if len(curve) != 3 {
		t.Fatalf("curve has %d points, want 3", len(curve))
	}
	if curve[len(curve)-1].Iteration != 30 {
		t.Fatal("final point must be at the last iteration")
	}
	for _, p := range curve {
		if p.Metrics.AUC < 0.3 || p.Metrics.AUC > 1 {
			t.Fatalf("implausible AUC %g", p.Metrics.AUC)
		}
	}
}

// TestRunSingleInterface is what replaced Run's per-interface switch arms:
// fed through the one Trainer interface at the trainer's own depth, Run
// yields exactly the curve of stepping the same executor batch by batch with
// nothing ahead — for the baseline and for the sharded Hotline executor at
// depths 1, 2 and 4.
func TestRunSingleInterface(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	run := RunConfig{BatchSize: 128, Iters: 9, EvalEvery: 4, EvalSize: 256}
	hotline := func(depth int) func() Trainer {
		return func() Trainer {
			svc := shard.New(shard.Config{
				Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
			}, nil)
			tr := NewHotlineSharded(model.New(cfg, 7), 0.1, svc)
			tr.Depth = depth
			tr.LearnSamples = 512
			return tr
		}
	}
	baseline := func() Trainer { return NewBaseline(model.New(cfg, 7), 0.1) }
	cases := []struct {
		name       string
		build, ref func() Trainer
	}{
		{"baseline", baseline, baseline},
		{"hotline-depth1", hotline(1), hotline(1)},
		{"hotline-depth2", hotline(2), hotline(1)},
		{"hotline-depth4", hotline(4), hotline(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Run(c.build(), data.NewGenerator(cfg), run)

			// Reference: batch by batch, nothing ahead, evaluated by hand.
			ref := c.ref()
			gen := data.NewGenerator(cfg)
			evalGen := data.NewGenerator(cfg)
			evalGen.NextBatch(run.EvalSize)
			evalBatch := evalGen.NextBatch(run.EvalSize)
			var want []CurvePoint
			for i := 1; i <= run.Iters; i++ {
				loss := ref.StepLookahead(gen.NextBatch(run.BatchSize), nil)
				if i%run.EvalEvery == 0 || i == run.Iters {
					probs := ref.Model().Predict(evalBatch)
					want = append(want, CurvePoint{i, loss, metrics.Evaluate(probs, evalBatch.Labels)})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("curve has %d points, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("point %d: Run %+v, batch-by-batch %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// Training with the Hotline executor must still learn (AUC above chance).
func TestHotlineLearns(t *testing.T) {
	cfg := tinyCfg()
	tr := NewHotline(model.New(cfg, 4), 0.1)
	curve := Run(tr, data.NewGenerator(cfg), RunConfig{BatchSize: 128, Iters: 60, EvalEvery: 60, EvalSize: 512})
	final := curve[len(curve)-1].Metrics.AUC
	if final < 0.55 {
		t.Fatalf("hotline executor failed to learn: AUC %.3f", final)
	}
}

// Seed derives the per-run seed k of a test that trains several models.
func Seed(base uint64, k int) uint64 { return base ^ tensor.NewRNG(uint64(k)).Uint64() }

func TestSeedDerivation(t *testing.T) {
	if Seed(1, 2) == Seed(1, 3) {
		t.Fatal("different k must give different seeds")
	}
	if Seed(1, 2) != Seed(1, 2) {
		t.Fatal("Seed must be deterministic")
	}
}
