// Command benchmark is the repository's benchmark: four workloads, seven
// end-to-end metrics and a per-layer trace taken from outside the program.
// See README.md in this directory.
//
//	bash benchmark/run.sh -workload fabric-unix -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -workload all -trace trace.json   # per-layer + Chrome trace
//	bash benchmark/run.sh -repeat 3                         # spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"

	"hotline/internal/par"
)

// nominalSeconds is the -seconds value the workloads' op counts are sized
// for on the reference 2-core box.
const nominalSeconds = 15

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "feeds data.Config.Seed and the model seed")
	seconds := flag.Int("seconds", nominalSeconds, "length of the timed phases; op counts are fixed per value so counters repeat")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a path: also write the spans there as Chrome trace JSON")
	scale := flag.Float64("scale", 1, "multiplies every op count")
	repeat := flag.Int("repeat", 0, "run N sets (seed, seed+1, ...) in alternating workload order and print each metric's median, quartiles and spread against its bound")
	spec := flag.String("spec", "BENCHMARK.json", "where -repeat reads the recorded bounds")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *repeat > 0 || len(names) > 1 {
		// One process per workload run, as the driver does it: a run's heap
		// and speed probe then owe nothing to the run before it.
		child := func(name string, seed uint64) []string {
			tr := *trace
			if tr != "0" && tr != "1" {
				tr = name + "." + tr
			}
			return []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(*seconds),
				"-scale", fmt.Sprint(*scale), "-trace", tr}
		}
		ok := true
		if *repeat > 0 {
			ok = repeatSets(names, *seed, *repeat, *trace != "0", *spec, child)
		} else {
			for _, n := range names {
				_, err := runChild(child(n, *seed), os.Stdout)
				ok = ok && err == nil
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// One trainer goroutine is the load generator; the second core is left
	// to gather drainers, node servers and request players.
	par.SetWorkers(1)
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	w = w.scaled(*scale * float64(*seconds) / nominalSeconds)
	traced := *trace != "0"
	fmt.Printf("env.nproc %d\nenv.gomaxprocs %d\nenv.par_workers %d\nenv.go %s\nseed %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.Workers(), runtime.Version(), *seed)
	res, err := runWorkload(w, *seed, traced)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, res, traced); err != nil {
		fatal(err)
	}
	if traced && *trace != "1" {
		if err := res.tracer.writeChrome(*trace); err != nil {
			fatal(err)
		}
	}
	if res.failed != 0 {
		os.Exit(1)
	}
}

// runChild runs this program again with args, copies what it prints to out
// and returns the metrics of its result line. A run that fails a check
// returns an error as well as its metrics.
func runChild(args []string, out io.Writer) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	if _, err := out.Write(stdout); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%v: no result line (%v): %w", args, runErr, err)
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		metrics[k] = v.Value
	}
	return metrics, runErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// report prints every metric by name with its unit, the op counts, and as
// the last line the result object the driver reads.
func report(w io.Writer, res *result, traced bool) error {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	fmt.Fprintf(w, "workload %s\nenv.probe_ms_p50 %v ms (reference %v)\n", res.workload, res.probeMS, probeRefNS/1e6)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "%s %v %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	fmt.Fprintf(w, "ops_attempted %d count\nops_failed %d count\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the driver's rule).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeatSets runs n sets of the workloads, alternating their order, and
// prints each metric's spread beside the bound recorded for it.
func repeatSets(names []string, seed uint64, n int, traced bool, specPath string, child func(string, uint64) []string) bool {
	bounds, err := readBounds(specPath)
	if err != nil {
		fatal(err)
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per set
	ok := true
	for set := 0; set < n; set++ {
		order := slices.Clone(names)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			metrics, err := runChild(child(name, seed+uint64(set)), io.Discard)
			status := "ok"
			if err != nil {
				status = err.Error()
				ok = false
			}
			fmt.Printf("set %d %s: %s\n", set, name, status)
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for k, v := range metrics {
				values[name][k] = append(values[name][k], v)
			}
		}
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	fmt.Printf("%-14s %-36s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range defs {
			vs := values[name][d.name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			line := fmt.Sprintf("%-14s %-36s %12.5g %12.5g %12.5g %8.4f", name, d.name, q1, q2, q3, spread)
			if b, bounded := bounds[d.name]; bounded {
				line += fmt.Sprintf(" %6.2f", b)
				if d.name != "setup_s" && spread > b/3 {
					line += "  WIDE (spread above a third of the bound)"
				}
			}
			fmt.Println(line)
		}
	}
	return ok
}

// readBounds reads the end-to-end regression bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
