package experiments

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/report"
	"hotline/internal/serve"
	"hotline/internal/shard"
)

// The serving scenario exercises the online read path the paper's target
// systems spend most of their life in: requests drawn from the drifting
// Zipf corpus replayed against a sharded model through the load harness,
// with every number measured (wall-clock latency percentiles) rather than
// modelled. Request traffic reads the device caches and never writes them,
// so how drift wears down the hit rate is mn-skew's to measure, on the
// training stream that fills them.

func init() {
	registry["mn-qps"] = regEntry{"Online serving saturation: QPS vs tail-latency knee", MNQPSKnee}
}

// servingCfg is the scaled Kaggle model the serving scenarios score with
// (same shape as the train-step benchmarks: full embedding tables, small
// MLPs, so the sparse read path dominates like it does in production).
func servingCfg() data.Config {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

// servingStack builds the 4-node sharded server the scenario scores on.
func servingStack(cfg data.Config, replicas int, cacheBytes int64) (*serve.Server, *shard.Service) {
	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: cacheBytes, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	m := model.New(cfg, 1)
	m.ShardEmbeddings(svc)
	return serve.NewServer(m, replicas), svc
}

// MNQPSKnee sweeps the offered request rate and reports the latency curve:
// throughput tracks the offered rate until the server saturates, after
// which the open-loop schedule piles queueing delay into the tail
// percentiles — the knee is the last rate whose p99 stays within budget.
func MNQPSKnee() *report.Table {
	t := &report.Table{Header: []string{
		"offered QPS", "achieved", "p50", "p99", "p999", "knee"}}
	cfg := servingCfg()
	srv, _ := servingStack(cfg, 2, 1<<20)
	corpus := serve.BuildCorpus(cfg, 2, TrainIters(), 64)
	requests := 4 * TrainIters()
	rates := []float64{100, 200, 400, 800, 1600}
	points := serve.SaturationSweep(srv, corpus, rates,
		serve.LoadConfig{Requests: requests, Players: 2})
	const budget = 20 * time.Millisecond
	knee := serve.Knee(points, budget)
	for i, p := range points {
		mark := ""
		if i == knee {
			mark = "<- knee"
		}
		t.AddRow(fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.0f", p.Report.Throughput),
			p.Report.Latency.P50.Round(time.Microsecond).String(),
			p.Report.Latency.P99.Round(time.Microsecond).String(),
			p.Report.Latency.P999.Round(time.Microsecond).String(),
			mark)
	}
	t.Notes = fmt.Sprintf("open-loop load harness (latency measured from scheduled "+
		"arrival, so saturation shows up as queueing in the tail); knee = last rate "+
		"with p99 inside %v. Wall-clock measurements: absolute values depend on the "+
		"host, the knee's shape is the result", budget)
	return t
}
