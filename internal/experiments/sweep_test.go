package experiments

import (
	"context"
	"errors"
	"testing"

	"hotline/internal/par"
	"hotline/internal/report"
)

// wallClockExperiments report measured wall-clock durations of the
// functional layer (the async-overlap scenario, the depth sweep, the
// serving latency knee, and the chaos recovery runs — whose restart
// timer is real time, so the recovery wall and the number of serve
// probes landing inside the outage vary run to run). Their timing cells
// legitimately vary, so the byte-identical sweep contract skips them;
// everything structural about them is still checked — their claims (no
// error row, no DIVERGED marker, max diff 0 on mn-fabric and mn-chaos) fail
// TestAllExperimentsRun.
var wallClockExperiments = map[string]bool{
	"mn-overlap": true, "mn-depth": true, "mn-qps": true, "mn-fabric": true,
	"mn-chaos": true,
}

// TestRunAllExperiments: one concurrent sweep of the registry — RunAll with
// no ids defaults to every registered experiment — returns a non-empty table
// per id in stable id order, byte-identical to the serial runs outside
// wallClockExperiments. Under -short the sweep covers a fast representative
// subset (ISA, models, three timing figures) instead.
func TestRunAllExperiments(t *testing.T) {
	SetTrainIters(testTrainIters)
	var ids []string // nil: RunAll's default, the full registry
	want := All()
	if testing.Short() {
		ids = []string{"tab1", "tab2", "fig19", "fig25", "fig26"}
		want = ids
	}

	tables, err := RunAll(context.Background(), ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(want) {
		t.Fatalf("sweep returned %d tables, want %d", len(tables), len(want))
	}
	for i, tab := range tables {
		if tab.ID != want[i] {
			t.Fatalf("table %d is %s, want %s (stable id order)", i, tab.ID, want[i])
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", tab.ID)
		}
		if wallClockExperiments[tab.ID] {
			continue
		}
		serial := serialRunOf(tab.ID)
		if serial.err != nil {
			t.Fatalf("serial %s: %v", tab.ID, serial.err)
		}
		if got := tab.Render(); got != serial.render {
			t.Errorf("%s: concurrent table differs from serial run:\n--- serial ---\n%s--- sweep ---\n%s",
				tab.ID, serial.render, got)
		}
	}
}

func TestSweepCapturesErrors(t *testing.T) {
	res := Sweep(context.Background(), []string{"tab1", "fig99"}, 2)
	if res[0].Err != nil || res[0].Table == nil {
		t.Fatalf("tab1 should succeed, got %v", res[0].Err)
	}
	if res[0].Duration <= 0 {
		t.Fatal("successful result must carry a duration")
	}
	if res[1].Err == nil {
		t.Fatal("unknown id must be captured as an error")
	}
	if _, err := RunAll(context.Background(), []string{"fig99"}, 1); err == nil {
		t.Fatal("RunAll must surface the first failure")
	}
}

func TestSweepCapturesPanics(t *testing.T) {
	registry["boom"] = regEntry{"panicking experiment", func() *report.Table {
		panic("kaboom")
	}}
	// A panic inside a parallel kernel shard must also be captured: par
	// forwards worker-goroutine panics to the experiment's goroutine.
	registry["boom-par"] = regEntry{"panicking parallel kernel", func() *report.Table {
		par.ForWork(1_000_000, 1024, func(lo, hi int) { panic("shard kaboom") })
		return &report.Table{}
	}}
	defer delete(registry, "boom")
	defer delete(registry, "boom-par")
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	res := Sweep(context.Background(), []string{"boom", "boom-par", "tab1"}, 2)
	if res[0].Err == nil || res[1].Err == nil {
		t.Fatalf("panics must be captured as errors, got %v / %v", res[0].Err, res[1].Err)
	}
	if res[2].Err != nil {
		t.Fatalf("panic must not poison sibling experiments: %v", res[2].Err)
	}
}

func TestSweepHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Sweep(ctx, []string{"tab1", "tab2"}, 2)
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", r.ID, r.Err)
		}
	}
}
