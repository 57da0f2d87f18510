// Command hotline-bench regenerates the paper's tables and figures, the
// design-choice ablations (abl-*), and the multi-node sharded-embedding
// scenarios (mn-*: node-count scaling, cache-size ablation, evolving skew,
// ownership placement — all measured against real shard and cache state).
//
// Experiments fan out over a bounded worker pool (one worker per core by
// default) and the tables print in stable id order; -json additionally
// emits a machine-readable sweep report with wall time, per-experiment
// durations and row counts.
//
// Usage:
//
//	hotline-bench -exp fig19              # one experiment
//	hotline-bench -exp mn-scale,mn-cache  # multi-node sharding scenarios
//	hotline-bench -exp all                # everything, concurrently
//	hotline-bench -exp all -workers 1     # serial baseline for comparison
//	hotline-bench -list                   # list experiment ids
//	hotline-bench -exp fig18 -iters 200   # longer functional training
//	hotline-bench -exp all -json report.json -quiet
//	hotline-bench -exp mn-depth           # prefetch depth sweep (exposure vs repair)
//	hotline-bench -smoke                  # fast CI smoke sweep
//	hotline-bench -fabric unix            # train over real hotline-node processes
//	hotline-bench -fabric tcp -fabric-nodes 4 -depth 4
//	                                      # ... 4 workers over loopback TCP, 4 windows deep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hotline"
	"hotline/internal/shard"
)

// experimentReport is one sweep entry of the JSON report.
type experimentReport struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	Rows       int     `json:"rows"`
	DurationMS float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
}

// sweepReport is the machine-readable output of -json.
type sweepReport struct {
	Workers     int                `json:"workers"`
	Parallelism int                `json:"parallelism"`
	Experiments int                `json:"experiments"`
	Failed      int                `json:"failed"`
	WallMS      float64            `json:"wall_ms"`
	Results     []experimentReport `json:"results"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (e.g. fig19, tab5), comma-separated ids, or 'all'")
	iters := flag.Int("iters", 40, "functional-training iterations for fig18/tab5")
	list := flag.Bool("list", false, "list available experiments and exit")
	workers := flag.Int("workers", 0, "experiment sweep workers (0 = NumCPU)")
	parallel := flag.Int("par", -1, "intra-experiment kernel workers (0 = NumCPU; -1 = auto: NumCPU for a single experiment, 1 while sweeping several to avoid oversubscription)")
	jsonPath := flag.String("json", "", "write a JSON sweep report to this file ('-' = stdout)")
	quiet := flag.Bool("quiet", false, "suppress table rendering (summary/JSON only)")
	smoke := flag.Bool("smoke", false, "CI smoke mode: shortest functional training")
	depth := flag.Int("depth", 0, "prefetch pipeline depth k of the -fabric run (0 = the default, 2; -exp mn-depth is the sweep)")
	fabric := flag.String("fabric", "", `multi-process coordinator mode: train over real hotline-node worker processes on this socket family ("unix" or "tcp") and report measured vs analytic all-to-all time`)
	fabricNodes := flag.Int("fabric-nodes", 2, "shard node count for -fabric")
	fabricIters := flag.Int("fabric-iters", 6, "training iterations for -fabric")
	fabricDial := flag.Duration("fabric-dial", shard.DefaultDialTimeout, "per-peer dial timeout for -fabric")
	fabricIO := flag.Duration("fabric-io", shard.DefaultIOTimeout, "per-operation read/write deadline for -fabric (also the workers' -io-timeout)")
	flag.Parse()

	// flag stops at the first positional word and drops everything after it,
	// so a stray id would silently sweep the default -exp all.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hotline-bench: unexpected argument %q (experiment ids go in -exp, e.g. -exp %s)\n", flag.Arg(0), flag.Arg(0))
		os.Exit(2)
	}
	if *depth < 0 {
		fmt.Fprintf(os.Stderr, "hotline-bench: -depth must be >= 1, or 0 for the default (2), got %d\n", *depth)
		os.Exit(2)
	}
	if *depth > 0 && *fabric == "" {
		fmt.Fprintln(os.Stderr, "hotline-bench: -depth is the pipeline depth of a -fabric run; experiments sweep the depth themselves (-exp mn-depth)")
		os.Exit(2)
	}
	if *fabric != "" {
		timeouts := shard.FabricTimeouts{Dial: *fabricDial, IO: *fabricIO}
		if err := timeouts.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "hotline-bench:", err)
			os.Exit(2)
		}
		runFabric(*fabric, *fabricNodes, *depth, *fabricIters, timeouts)
		return
	}

	if *list {
		for _, id := range hotline.Experiments() {
			fmt.Printf("%-6s %s\n", id, hotline.ExperimentTitle(id))
		}
		return
	}
	if *smoke {
		// Shortest functional training, unless -iters was given explicitly.
		itersSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "iters" {
				itersSet = true
			}
		})
		if !itersSet {
			*iters = 6
		}
	}
	hotline.SetExperimentTrainIters(*iters)

	var ids []string
	if *exp == "all" {
		ids = hotline.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "hotline-bench: no experiment ids given (see -list)")
		os.Exit(2)
	}

	sweepWorkers := hotline.EffectiveSweepWorkers(*workers, len(ids))
	switch {
	case *parallel >= 0:
		hotline.Parallelism(*parallel)
	case sweepWorkers > 1:
		// The sweep already saturates the cores with whole experiments;
		// per-kernel sharding on top would oversubscribe NumCPU^2-style.
		hotline.Parallelism(1)
	default:
		hotline.Parallelism(0)
	}

	start := time.Now()
	results := hotline.SweepExperiments(context.Background(), ids, *workers)
	wall := time.Since(start)

	rep := sweepReport{
		Workers:     sweepWorkers,
		Parallelism: hotline.NumWorkers(),
		Experiments: len(results),
		WallMS:      float64(wall.Microseconds()) / 1e3,
	}
	failed := false
	for _, r := range results {
		er := experimentReport{
			ID:         r.ID,
			Title:      r.Title,
			DurationMS: float64(r.Duration.Microseconds()) / 1e3,
		}
		if r.Err != nil {
			er.Error = r.Err.Error()
			rep.Failed++
			failed = true
			fmt.Fprintf(os.Stderr, "hotline-bench: %s: %v\n", r.ID, r.Err)
		} else {
			er.Rows = len(r.Table.Rows)
			if !*quiet {
				fmt.Println(r.Table.Render())
			}
		}
		rep.Results = append(rep.Results, er)
	}
	fmt.Fprintf(os.Stderr, "hotline-bench: %d experiment(s), %d worker(s), wall %s\n",
		len(results), rep.Workers, wall.Round(time.Millisecond))

	if *jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hotline-bench:", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hotline-bench:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}
