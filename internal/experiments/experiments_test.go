package experiments

import (
	"slices"
	"strings"
	"testing"

	"hotline/internal/report"
)

// heavyExperiments run functional training or large design-space probes and
// dominate the suite's wall time; -short skips them (the sweep tests still
// cover a fast subset end-to-end, and CI's scenario step runs mn-depth and
// mn-syn through hotline-bench -smoke without the race detector).
var heavyExperiments = map[string]bool{
	"tab5": true, "fig18": true, "fig27": true, "fig28": true, "abl-eal": true,
	"mn-depth": true, "mn-syn": true, "mn-fabric": true, "mn-chaos": true,
	"mn-quant": true,
}

// testTrainIters keeps functional training short in tests; every test of
// this package runs the registry at this one value, so a serial render is
// comparable with the concurrent sweep's.
const testTrainIters = 8

// serialRuns memoises one serial Run per experiment id for the whole test
// binary: TestAllExperimentsRun checks each table, TestRunAllExperiments
// compares the concurrent sweep against the same renders, and neither
// sweeps the registry a second time.
var serialRuns = map[string]serialRun{}

type serialRun struct {
	table  *report.Table
	render string
	err    error
}

func serialRunOf(id string) serialRun {
	if r, ok := serialRuns[id]; ok {
		return r
	}
	SetTrainIters(testTrainIters)
	var r serialRun
	if tab, err := Run(id); err != nil {
		r.err = err
	} else {
		r.table, r.render = tab, tab.Render()
	}
	serialRuns[id] = r
	return r
}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && heavyExperiments[id] {
				t.Skip("heavy experiment; run without -short")
			}
			r := serialRunOf(id)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if len(r.table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if !strings.Contains(r.render, id) {
				t.Fatal("render must include the experiment id")
			}
			if f := failedClaim(r.table); f != "" {
				t.Fatalf("the scenario reports a failed claim: %s", f)
			}
		})
	}
}

// failedClaim returns what a table reports as failed — an "error:" cell, a
// DIVERGED marker in a cell or the note, or a non-zero "max diff" (the
// bit-parity column of mn-fabric and mn-chaos) — or "" when every claim held.
func failedClaim(tab *report.Table) string {
	if strings.Contains(tab.Notes, "DIVERGED") {
		return tab.Notes
	}
	diff := slices.Index(tab.Header, "max diff")
	for _, row := range tab.Rows {
		for i, cell := range row {
			if strings.HasPrefix(cell, "error:") || strings.Contains(cell, "DIVERGED") || (i == diff && cell != "0") {
				return strings.Join(row, " | ")
			}
		}
	}
	return ""
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure/table in DESIGN.md's per-experiment index must exist.
	want := []string{
		"tab1", "tab2", "tab5",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig15", "fig16", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "fig29", "fig30",
	}
	have := map[string]bool{}
	for _, id := range All() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	// plus the design-choice ablations and multi-node sharding scenarios
	extras := []string{
		"abl-eal", "abl-feistel", "abl-overlap", "abl-sampling",
		"mn-scale", "mn-cache", "mn-skew",
		"mn-place", "mn-overlap", "mn-adagrad",
		"mn-depth", "mn-syn", "mn-batch",
		"mn-qps", "mn-fabric", "mn-chaos", "mn-quant",
	}
	for _, id := range extras {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All()) != len(want)+len(extras) {
		t.Errorf("registry has %d experiments, expected %d", len(All()), len(want)+len(extras))
	}
}

func TestTitlesPresent(t *testing.T) {
	for _, id := range All() {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}
