// Online serving: the read-only predict path over the sharded embedding
// service, driven by the open-loop load harness. The example runs the
// serving story end to end —
//
//  1. a mixed run trains and serves the SAME weights concurrently, and the
//     trained state stays bit-identical to a train-only run (serving never
//     perturbs training: no prefetch window consumed, no parameter touched);
//
//  2. the load harness replays a drifting Zipf request corpus at a target
//     QPS and reports exact latency percentiles plus the serve-side traffic
//     counters (request traffic reads the device caches training warmed,
//     writes none, and is booked separately from training traffic).
//
//     go run ./examples/serve
package main

import (
	"fmt"
	"time"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	cfg.Samples = 2048
	const iters, batch, seed = 8, 128, 42

	newStack := func() (*hotline.Model, *hotline.ShardService) {
		m := hotline.NewModel(cfg, seed)
		svc := hotline.NewShardService(hotline.ShardConfig{
			Nodes: 4, CacheBytes: 1 << 20, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		return m, svc
	}

	// Train-only reference.
	mRef, svcRef := newStack()
	ref := hotline.NewHotlineShardedTrainer(mRef, 0.1, svcRef)
	gen := hotline.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		ref.Step(gen.NextBatch(batch))
	}

	// Mixed: the same training stream with predict traffic interleaved on
	// the same weights through the server's read path.
	mMix, svcMix := newStack()
	tr := hotline.NewHotlineShardedTrainer(mMix, 0.1, svcMix)
	srv := hotline.NewServer(mMix, 2)
	corpus := hotline.BuildServeCorpus(cfg, 2, 8, 32)
	gen = hotline.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		b := gen.NextBatch(batch)
		srv.Train(func() { tr.Step(b) })
		srv.Predict(corpus.Requests[i%corpus.Len()].Batch)
	}
	parity := "bit-identical"
	if d := hotline.MaxModelStateDiff(mRef, mMix); d != 0 {
		parity = fmt.Sprintf("DIVERGED %g", d)
	}
	reqs, samples := srv.Served()
	fmt.Printf("mixed train+serve: %d steps, %d predicts (%d samples) -> training state %s\n",
		iters, reqs, samples, parity)

	// Load harness: open-loop replay at a fixed rate.
	before := svcMix.ServeSnapshot()
	trainLookups := svcMix.Snapshot().Lookups
	rep := hotline.RunLoad(srv, corpus, hotline.LoadConfig{QPS: 100, Requests: 64, Players: 2})
	fmt.Printf("\nload run: %d requests at %g QPS -> %.0f req/s achieved in %v\n",
		rep.Requests, rep.QPS, rep.Throughput, rep.Wall.Round(time.Millisecond))
	fmt.Printf("latency  p50 %v  p90 %v  p99 %v  p999 %v\n",
		rep.Latency.P50.Round(time.Microsecond), rep.Latency.P90.Round(time.Microsecond),
		rep.Latency.P99.Round(time.Microsecond), rep.Latency.P999.Round(time.Microsecond))
	sv := svcMix.ServeSnapshot().Sub(before)
	fmt.Printf("serve traffic: %.1f%% cache hit, %.1f%% gathered (training counters untouched: %d -> %d lookups)\n",
		100*sv.HitRate(), 100*sv.GatherFrac(),
		trainLookups, svcMix.Snapshot().Lookups)
}
