package serve

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
)

// warmServer builds a one-replica server over a 4-node sharded model (the
// scaled Kaggle model of the train-step benchmarks: the real Criteo Kaggle
// sparse stream over small MLPs) and one batch-32 request, predicted once so
// the caches and the replica's scratch hold their steady state.
func warmServer(q shard.QuantMode) (*Server, *data.Batch, []float32) {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	m := model.New(cfg, 1)
	m.ShardEmbeddings(shard.New(shard.Config{
		Nodes: 4, CacheBytes: 1 << 20, RowBytes: int64(cfg.EmbedDim) * 4,
		Quant: q,
	}, nil))
	srv := NewServer(m, 1)
	batch := data.NewGenerator(cfg).NextBatch(32)
	return srv, batch, srv.Predict(batch)
}

// BenchmarkServePredict measures one online prediction (batch 32) through the
// read-only serving path on a warmed 4-node sharded server, at one worker.
func BenchmarkServePredict(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	srv, batch, probs := warmServer(shard.QuantOff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probs = srv.PredictInto(probs, batch)
	}
}

// TestPredictIntoZeroAllocSteadyState: a warmed request through the serving
// path — replica checkout, sharded serve-side gathers (fused dequantize on
// the precision-tiered caches), dense forward into the caller's buffer —
// performs ZERO allocations at Parallelism(1).
func TestPredictIntoZeroAllocSteadyState(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	for _, q := range []shard.QuantMode{shard.QuantOff, shard.QuantMixed} {
		t.Run(q.String(), func(t *testing.T) {
			srv, b, probs := warmServer(q)
			if n := testing.AllocsPerRun(30, func() { probs = srv.PredictInto(probs, b) }); n > 0 {
				t.Fatalf("PredictInto allocated %.1f times per request, want 0", n)
			}
		})
	}
}
