package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"hotline/internal/par"
)

// testScale shrinks every op count; small() additionally shrinks the batch
// pool, the corpus and the slice count so a run costs a fraction of a second.
const testScale = 0.02

func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	par.SetWorkers(1)
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.small().scaled(testScale)
}

func mustRun(t *testing.T, w workload, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d ops failed: %v", w.name, res.failed, res.failures)
	}
	return res
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type benchSpec struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the tables in this package name the same workloads and
// the same metrics with the same units and directions.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, op counts are sized for %d", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	compare := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, program has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, d.name, g.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	compare("per_layer", spec.PerLayer, perLayerMetrics, false)
	for _, n := range exactCounts {
		if !seen[n] {
			t.Errorf("exactCounts names %q, which is not a metric", n)
		}
	}
}

// Every metric is printed exactly once per workload, by name with its unit,
// and the last line is the result object with exactly those metrics.
func TestReportPrintsEveryMetricOnce(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res := mustRun(t, testWorkload(t, wl.name), 1, traced)
			var buf bytes.Buffer
			if err := report(&buf, res, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			for _, d := range defs {
				n := 0
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", wl.name, traced, d.name, n)
				}
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.name, err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 || len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result %+v", wl.name, traced, out)
			}
			for _, d := range defs {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: result lacks %s in %s", wl.name, traced, d.name, d.unit)
				}
			}
			if !traced {
				for _, d := range defs {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// Count metrics of the training window repeat exactly for a seed and move
// with the seed.
func TestCountsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{"dense-local", "sparse-inproc", "fabric-unix"} {
		w := testWorkload(t, name)
		a, b, other := mustRun(t, w, 1, true), mustRun(t, w, 1, true), mustRun(t, w, 2, true)
		moved := false
		for _, m := range exactCounts {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s = %v then %v on the same seed", name, m, a.metrics[m], b.metrics[m])
			}
			moved = moved || a.metrics[m] != other.metrics[m]
		}
		if !moved {
			t.Errorf("%s: no count metric changed with the seed", name)
		}
	}
}

// The wire is silent unless rows cross a socket.
func TestWireMetricsZeroInProc(t *testing.T) {
	res := mustRun(t, testWorkload(t, "sparse-inproc"), 1, true)
	for _, d := range perLayerMetrics {
		wire := strings.HasPrefix(d.name, "shard.wire_") || strings.HasPrefix(d.name, "shard.fetch_") || strings.HasPrefix(d.name, "shard.push_")
		if wire && res.metrics[d.name] != 0 {
			t.Errorf("%s = %v on an in-proc workload", d.name, res.metrics[d.name])
		}
	}
}

// Self time subtracts the union of the children's intervals, clipped to the
// parent: concurrent children are not counted twice and a child that outlives
// its parent is cut off.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100},                 // id 1
		{Name: "a", Start: 10, End: 40, Parent: 1},         // id 2
		{Name: "b", Start: 30, End: 60, Parent: 1},         // id 3: overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 1},        // id 4: 30 past the root's end
		{Name: "a1", Start: 15, End: 20, Parent: 2},        // id 5
		{Name: "a2", Start: 18, End: 25, Parent: 2},        // id 6: overlaps a1 by 2
		{Name: "a3", Start: 18, End: 19, Parent: 2},        // id 7: inside a1 and a2
		{Name: "orphan", Start: 50, End: 70},               // id 8: nobody's child
		{Name: "early", Start: -20, End: 5, Parent: 1},     // id 9: starts before the root
		{Name: "outside", Start: 200, End: 210, Parent: 1}, // id 10: wholly outside
	}
	// root: a∪b covers [10,60) = 50, c clipped covers [90,100) = 10, early
	// clipped covers [0,5) = 5, outside nothing: 100 - 65.
	want := []int64{35, 30 - 10, 30, 40, 5, 7, 1, 20, 25, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// The quartile rule is Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
