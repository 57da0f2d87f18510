package pipeline

import (
	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// probeRun is one functional training run of the sharded Hotline executor
// — the run MeasureOverlap, MeasureFabric and MeasureChaos all measure. It
// trains a fixed-seed model on fn's deterministic stream, so two runs that
// differ only in depth, transport or injected faults are comparable bit for
// bit.
type probeRun struct {
	fn           data.Config // probe-shaped dataset (probeShape)
	nodes        int
	cacheBytes   int64
	depth        int
	iters, batch int
	// attach, when non-nil, plugs the run's transport and recovery policy
	// into the fresh service before the tables register.
	attach func(*shard.Service)
	// window, when non-nil, runs ahead of training window i (chaos ticks,
	// serve probes).
	window func(svc *shard.Service, i int, b *data.Batch)
}

// probeResult is what one probe run leaves behind. svc is closed; its
// counter snapshots (recovery, peer health, serve side) stay readable.
type probeResult struct {
	loss  float64 // last iteration's training loss
	m     *model.Model
	stats shard.Stats
	over  shard.OverlapStats
	svc   *shard.Service
}

// probeShape shrinks cfg to the functional probe the measurements train:
// the access stream (and therefore the fabric traffic) is untouched, the
// MLPs are small so the run is dominated by what is being measured — less
// compute per iteration also means less time to hide traffic under, so
// exposure measured on the probe is a conservative estimate for the full
// model.
func probeShape(cfg data.Config) data.Config {
	fn := cfg
	fn.Samples = 2048
	fn.BotMLP = []int{cfg.BotMLP[0], 64, cfg.EmbedDim}
	fn.TopMLP = []int{64, 1}
	return fn
}

// runProbe executes p. The returned error is the fabric error the service
// recorded during the run and its Close.
func runProbe(p probeRun) (probeResult, error) {
	svc := shard.New(shard.Config{
		Nodes: p.nodes, CacheBytes: p.cacheBytes,
		RowBytes: int64(p.fn.EmbedDim) * 4,
	}, nil)
	if p.attach != nil {
		p.attach(svc)
	}
	t := train.NewHotlineSharded(model.New(p.fn, 42), 0.1, svc)
	t.Depth = p.depth
	t.LearnSamples = 512
	batches := data.NewGenerator(p.fn).NextBatches(p.iters, p.batch)
	svc.ResetStats()
	var before func(int)
	if p.window != nil {
		before = func(i int) { p.window(svc, i, batches[i]) }
	}
	losses := train.StepAll(t, batches, before)
	res := probeResult{
		loss: losses[len(losses)-1], m: t.M,
		stats: svc.Snapshot(), over: svc.Gatherer().Stats(), svc: svc,
	}
	// Close before reading the fabric error: a socket fabric settles its
	// last scatter pushes there, and one lost in flight is recorded then.
	svc.Close()
	return res, svc.FabricErr()
}
