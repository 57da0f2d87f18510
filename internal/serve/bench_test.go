package serve

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// scaledKaggle is the scaled Kaggle model of the train-step benchmarks: the
// real Criteo Kaggle sparse stream over small MLPs.
func scaledKaggle() data.Config {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

// shard4 is the benchmarks' 4-node in-proc service.
func shard4(cfg data.Config, q shard.QuantMode) *shard.Service {
	return shard.New(shard.Config{
		Nodes: 4, CacheBytes: 1 << 20, RowBytes: int64(cfg.EmbedDim) * 4,
		Quant: q,
	}, nil)
}

// warmServer builds a one-replica server over a 4-node sharded model and one
// batch-32 request. A request reads the device caches and writes none, so
// the request's rows enter them the way training's learning phase puts rows
// there: as the hot set a swap installs (Service.Relearn). The request is
// then predicted once so the replica's scratch holds its steady state, in
// which every remote lookup hits.
func warmServer(q shard.QuantMode) (*Server, *data.Batch, []float32) {
	cfg := scaledKaggle()
	m := model.New(cfg, 1)
	svc := shard4(cfg, q)
	m.ShardEmbeddings(svc)
	srv := NewServer(m, 1)
	batch := data.NewGenerator(cfg).NextBatch(32)
	hot := embedding.NewPlacement(cfg.NumTables, cfg.EmbedDim)
	for t, bags := range batch.Sparse {
		for _, bag := range bags {
			for _, row := range bag {
				hot.MarkHot(t, row)
			}
		}
	}
	svc.Relearn(hot)
	return srv, batch, srv.Predict(batch)
}

// BenchmarkServePredict measures one online prediction (batch 32) through the
// read-only serving path on a 4-node sharded server whose caches hold the
// request's rows, at one worker.
func BenchmarkServePredict(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	srv, batch, probs := warmServer(shard.QuantOff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probs = srv.PredictInto(probs, batch)
	}
}

// BenchmarkPredictBesideTrainer measures the same prediction while a Hotline
// executor trains the same weights back to back through Server.Train — the
// serve-mixed workload's shape: batch-64 steps at depth 2 on the 4-node
// in-proc service, one kernel worker, the trainer on its own goroutine. What
// a request waits for the trainer is this minus BenchmarkServePredict: the
// update bracket, not the step. The warmed trainer allocates nothing either,
// so allocs/op stays 0.
func BenchmarkPredictBesideTrainer(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := scaledKaggle()
	svc := shard4(cfg, shard.QuantOff)
	defer svc.Close()
	tr := train.NewHotlineSharded(model.New(cfg, 1), 0.1, svc)
	srv := NewServer(tr.Model(), 1)
	gen := data.NewGenerator(cfg)
	request := gen.NextBatch(32)
	probs := srv.Predict(request)
	// The stream cycles a window of batches, each step handed the one after
	// it, so every lookahead is found staged.
	window := gen.NextBatches(8, 64)
	step := func(i int) {
		next := (i + 1) % len(window)
		srv.Train(func() { tr.StepLookahead(window[i%len(window)], window[next:next+1]) })
	}
	warm := 2 * len(window) // two passes over the window settle every buffer
	for i := 0; i < warm; i++ {
		step(i)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := warm; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			step(i)
		}
	}()
	b.ReportAllocs()
	for b.Loop() {
		probs = srv.PredictInto(probs, request)
	}
	close(stop)
	<-done
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
