package pipeline

import (
	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// Probe is one functional training run of the sharded Hotline executor —
// the one run every measured scenario trains (MeasureOverlap, MeasureFabric,
// mn-overlap, mn-depth, mn-quant, mn-chaos). It trains a fixed-seed model on
// a dataset's deterministic stream, so two runs that differ only in depth,
// cache format, transport or injected faults are comparable bit for bit.
type Probe struct {
	// Shard configures the service (nodes, cache budget, precision tiers);
	// its RowBytes is the trained dataset's fp32 row.
	Shard shard.Config
	// Hot is the service's popularity classifier (nil: every row is hot).
	Hot shard.HotClassifier
	// Depth is the prefetch pipeline depth; < 1 keeps the executor's
	// train.DefaultDepth.
	Depth        int
	Iters, Batch int
	// Attach, when non-nil, plugs a transport, recovery policy or read mode
	// into the fresh service before the tables register.
	Attach func(*shard.Service)
	// Window, when non-nil, runs ahead of training window i (chaos ticks,
	// serve probes).
	Window func(svc *shard.Service, i int, b *data.Batch)
}

// ProbeResult is what one probe run leaves behind. Service is closed; its
// counters (cache entries, recovery, peer health, serve side) stay readable.
type ProbeResult struct {
	Losses  []float64 // per-iteration training losses
	Model   *model.Model
	Stats   shard.Stats // the training counters, the gather engine's included
	Service *shard.Service
}

// ProbeShape shrinks cfg to the functional probe the fabric measurements
// train: the access stream (and therefore the fabric traffic) is untouched,
// the MLPs are small so the run is dominated by what is being measured —
// less compute per iteration also means less time to hide traffic under, so
// exposure measured on the probe is a conservative estimate for the full
// model.
func ProbeShape(cfg data.Config) data.Config {
	fn := cfg
	fn.Samples = 2048
	fn.BotMLP = []int{cfg.BotMLP[0], 64, cfg.EmbedDim}
	fn.TopMLP = []int{64, 1}
	return fn
}

// Train runs p on fn exactly as given. The returned error is the fabric
// error the service recorded during the run and its Close; an in-proc run
// records none.
func (p Probe) Train(fn data.Config) (ProbeResult, error) {
	cfg := p.Shard
	cfg.RowBytes = int64(fn.EmbedDim) * 4
	svc := shard.New(cfg, p.Hot)
	if p.Attach != nil {
		p.Attach(svc)
	}
	t := train.NewHotlineSharded(model.New(fn, 42), 0.1, svc)
	if p.Depth >= 1 {
		t.Depth = p.Depth
	}
	t.LearnSamples = 512
	batches := data.NewGenerator(fn).NextBatches(p.Iters, p.Batch)
	svc.ResetStats()
	var before func(int)
	if p.Window != nil {
		before = func(i int) { p.Window(svc, i, batches[i]) }
	}
	res := ProbeResult{Losses: train.StepAll(t, batches, before), Model: t.M, Service: svc}
	res.Stats = svc.Snapshot()
	// Close before reading the fabric error: a socket fabric settles its
	// last scatter pushes there, and one lost in flight is recorded then.
	svc.Close()
	return res, svc.FabricErr()
}
