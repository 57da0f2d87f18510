// Command hotline-serve runs the online serving stack under request load:
// a sharded model behind predict replicas, a Zipf/drifting request corpus,
// and the open-loop load harness reporting throughput and exact latency
// percentiles. Optionally it trains concurrently on the same weights
// (-train), exercising the mixed train+serve path the parity tests pin
// down, or sweeps the offered rate to find the saturation knee (-sweep).
// Requests only read the device caches: a -train run fills them as it
// trains, and a serve-only run first preloads the hot set learned from one
// profiled epoch.
//
// Usage:
//
//	hotline-serve -qps 500 -requests 256                 # one load run
//	hotline-serve -dataset RM1 -qps 200 -players 4
//	hotline-serve -sweep 100,200,400,800 -budget 20ms    # knee sweep
//	hotline-serve -qps 300 -train                        # mixed train+serve
//	hotline-serve -qps 100 -requests 32 -quiet           # CI smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hotline"
	"hotline/internal/data"
	"hotline/internal/embedding"
)

func main() {
	dataset := flag.String("dataset", "Criteo Kaggle", "dataset name or RM id")
	nodes := flag.Int("nodes", 4, "shard service node count")
	replicas := flag.Int("replicas", 2, "predict replicas (weight-sharing shadows)")
	qps := flag.Float64("qps", 100, "target request rate (open-loop schedule)")
	requests := flag.Int("requests", 128, "requests to play (corpus wraps if shorter)")
	players := flag.Int("players", 2, "parallel request players")
	reqBatch := flag.Int("req-batch", 32, "samples per request")
	days := flag.Int("days", 2, "drift days in the request corpus")
	perDay := flag.Int("per-day", 32, "corpus request batches per day")
	seed := flag.Uint64("seed", 42, "model init seed")
	doTrain := flag.Bool("train", false, "train concurrently on the same weights while serving")
	lr := flag.Float64("lr", 0.1, "learning rate for -train")
	sweep := flag.String("sweep", "", "comma-separated QPS grid: saturation sweep instead of a single run")
	budget := flag.Duration("budget", 20*time.Millisecond, "p99 latency budget for the sweep's knee")
	parallel := flag.Int("par", 0, "kernel workers (0 = NumCPU)")
	quiet := flag.Bool("quiet", false, "suppress per-run detail (summary line only)")
	flag.Parse()

	hotline.Parallelism(*parallel)
	cfg, err := hotline.DatasetByName(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-serve:", err)
		os.Exit(1)
	}

	m := hotline.NewModel(cfg, *seed)
	svc := hotline.NewShardService(hotline.ShardConfig{
		Nodes: *nodes, CacheBytes: 1 << 20, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	// The sharded trainer shards the model itself and fills the caches as it
	// trains. Serve-only runs shard here and preload the learned hot set, as
	// the learning phase does: a request writes no cache, so without it every
	// remote read would miss.
	var tr hotline.Trainer
	if *doTrain {
		tr = hotline.NewHotlineShardedTrainer(m, float32(*lr), svc)
	} else {
		m.ShardEmbeddings(svc)
		prof := data.ProfileEpoch(data.NewGenerator(cfg), 512)
		hot := embedding.PlacementFromCounts(prof.Counts(), cfg.NumTables, cfg.EmbedDim, svc.Config().CacheBytes)
		for t := 0; t < cfg.NumTables; t++ {
			svc.Preload(t, hot.HotRows(t))
		}
	}
	srv := hotline.NewServer(m, *replicas)
	corpus := hotline.BuildServeCorpus(cfg, *days, *perDay, *reqBatch)

	if !*quiet {
		fmt.Printf("serving %s (%s): %d nodes, %d replicas, corpus %d requests x %d samples over %d days\n",
			cfg.Name, cfg.RM, *nodes, *replicas, corpus.Len(), *reqBatch, *days)
	}

	if *sweep != "" {
		var rates []float64
		for _, s := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r <= 0 {
				fmt.Fprintf(os.Stderr, "hotline-serve: bad sweep rate %q\n", s)
				os.Exit(1)
			}
			rates = append(rates, r)
		}
		points := hotline.SaturationSweep(srv, corpus, rates,
			hotline.LoadConfig{Requests: *requests, Players: *players})
		knee := hotline.LoadKnee(points, *budget)
		for i, p := range points {
			mark := ""
			if i == knee {
				mark = "  <- knee"
			}
			fmt.Printf("qps %6.0f  achieved %6.0f  p50 %-10v p99 %-10v p999 %-10v%s\n",
				p.QPS, p.Report.Throughput,
				p.Report.Latency.P50.Round(time.Microsecond),
				p.Report.Latency.P99.Round(time.Microsecond),
				p.Report.Latency.P999.Round(time.Microsecond), mark)
		}
		if knee < 0 {
			fmt.Printf("no rate met the %v p99 budget\n", *budget)
		}
		return
	}

	stop := make(chan struct{})
	trained := make(chan int)
	if *doTrain {
		gen := hotline.NewGenerator(cfg)
		go func() {
			// One batch is drawn ahead and handed to the step before it, so
			// the executor's cross-iteration pipeline runs: each step stages
			// the next batch (classification, gather window) and finds it
			// staged, matched by pointer, when that batch trains. The batch
			// drawn ahead when stop arrives is never trained.
			steps := 0
			ahead := []*hotline.Batch{gen.NextBatch(64)}
			for {
				select {
				case <-stop:
					trained <- steps
					return
				default:
				}
				b := ahead[0]
				ahead[0] = gen.NextBatch(64)
				srv.Train(func() { tr.StepLookahead(b, ahead) })
				steps++
			}
		}()
	}

	rep := hotline.RunLoad(srv, corpus, hotline.LoadConfig{
		QPS: *qps, Requests: *requests, Players: *players,
	})
	if *doTrain {
		close(stop)
		fmt.Printf("trained %d steps while serving\n", <-trained)
	}

	fmt.Printf("played %d requests (%d samples) in %v: %.0f req/s\n",
		rep.Requests, rep.Samples, rep.Wall.Round(time.Millisecond), rep.Throughput)
	fmt.Printf("latency p50 %v  p90 %v  p99 %v  p999 %v  (min %v max %v)\n",
		rep.Latency.P50.Round(time.Microsecond), rep.Latency.P90.Round(time.Microsecond),
		rep.Latency.P99.Round(time.Microsecond), rep.Latency.P999.Round(time.Microsecond),
		rep.Latency.Min.Round(time.Microsecond), rep.Latency.Max.Round(time.Microsecond))
	if !*quiet {
		sv := svc.ServeSnapshot()
		fmt.Printf("serve traffic: %.1f%% cache hit, %.1f%% gathered, %.1f KB gathered/request\n",
			100*sv.HitRate(), 100*sv.GatherFrac(),
			float64(sv.GatherBytes)/float64(rep.Requests)/1024)
	}
}
