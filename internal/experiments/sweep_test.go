package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
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

// memoPricedExperiments price a NewShardedWorkload: each prints the measured
// exposed-gather fraction and the Hotline iteration priced from it, which the
// memo holds fixed within one process but which a new process measures
// afresh. Their tables agree between the sweep and the serial runs, so only
// experimentDigests skips them.
var memoPricedExperiments = map[string]bool{"mn-scale": true, "mn-syn": true, "mn-batch": true}

// experimentDigests pins every table whose cells depend on nothing measured:
// the SHA-256 of Table.Render() at testTrainIters, per experiment id. It
// covers every registered id outside wallClockExperiments and
// memoPricedExperiments, so a change that moves one cell of one table — a
// hit, an eviction, a loss digit, a row's order — fails here and names the
// table. Change an entry only in a change that says why.
var experimentDigests = map[string]string{
	"abl-eal":      "23cbad6460fb5e2d5768465969a0c9536a57c5ee48f91233e2ed0fa702e0eb77",
	"abl-feistel":  "d4fcba791329afd23fbe301ada626ee29500bb232d00a6e77311fdad4a0bd802",
	"abl-overlap":  "0d041449296ea60f37b9b76f9d339487922de4ccda66b6fb6d3da89668f1c193",
	"abl-sampling": "a17ff38469d2e4e899ad600368beb1a03bee4d5ea0a7eac1c988d80ea1fbe048",
	"fig15":        "ad3a0ed7298d98129377f2e644fa7c2ee9e3fbd5917f7b1e34396d74eece4a40",
	"fig16":        "e7b8eeb0edfd2c24223b71d94515147b51e469990f2b5b00d9b9e6ceb986c758",
	"fig18":        "5c86568f2577ebb63ae9b8444b91eaea2535705e20b3c015d131a327481cafc6",
	"fig19":        "b84f3d9acd98c97877d17889c8df861484e533ec799689249cbab62c56e7e646",
	"fig20":        "c88ee4ca2724708d827e2a336c66fb2f4d030bba88f75eaed1bfb385c61902fb",
	"fig21":        "675f6f663aebdcb583a18e3123d9c4f2b8c94544559bc1b12744ef2015275d2e",
	"fig22":        "7457e69c9a73e641ae5933251efc14aab55465d51f80dc60a3480c154a1fe6c0",
	"fig23":        "830e24afa7599eef834ed0e946488ac3871d2ea70c34e4aacd6f201e10cb434b",
	"fig24":        "e7c30aca30dacc6e5f7acce8e3c5321f69904f156bb21c68e154dcce1f5ca54b",
	"fig25":        "3b1780fed3f2ee21fa138cf4e69f3962dbd9b75376cb225f1842035799bf274a",
	"fig26":        "fe5644ba871aa8c079fad9aea73560c93e40e2db748ea7fa71a47dbc9d724ede",
	"fig27":        "e82d55e8b78cf4c9be6fa5b12e737a052b84822724843451a1d0b8f9104c8e38",
	"fig28":        "02a332f3f69b4c6a2a9ab7fbab7f385f5c9f7bfb42a7128bc1717cb16cfabfbd",
	"fig29":        "51aedd1656677ff046bb9f8adf2cd91e91de5878e1e9ea50cedfa9775db01fe8",
	"fig3":         "fa4127fda68d323320bc89df715564d55d982af6f95525e37578bfd535481864",
	"fig30":        "a2d033401539c1417e9ca43659b797c95d4253a925abfd9d7a4ded0d903f8fd9",
	"fig4":         "970263e402542bcbd80926a983ea0a62d0a282551e4a07681c9d43efd9b0a979",
	"fig5":         "6e4d130061764211b762ff4f43056683ecc292c222cad7f2ca11113689f01ae2",
	"fig6":         "486d3db75b735bd45a9213266478022b8aec8b43b297c83273d2c454f3b77195",
	"fig7":         "46f31b45e2fc4b66a2d26179952f5f7f99397d83a30564ae9f38fdd9ed6d2c35",
	"fig8":         "553afea6171998ab48784d448dd9f0544e02ca39ba7b5c620bd27b6c065fa61f",
	"fig9":         "0cbaa08c3ff41abbfda84f088d2879593d3d48ddfd9597de323a4544f054da32",
	"mn-adagrad":   "bc1ff08bfab4fc4d1e79cbf88a1ec737d951a008c4bb8f80d00f66ea0723561d",
	"mn-cache":     "31d3bd583b4565cade55c7053b2055b2af4ab25311ea58fadb88d451d784ac3e",
	"mn-place":     "ed8fd7ceecd8079917ac50ddc380cf1a94be34e102adeb2deac22a6f99adea04",
	"mn-quant":     "9301cf223e1c4e68ebbd6fa874262abdde6d18037295df6a408670d8fee2d11e",
	"mn-skew":      "c2f23fa4b704a3caff7617b11f437dd322fbb185a6d79190233013f7c5645556",
	"tab1":         "3b07cb057ca1be53cccc532e9da3d817944b0d2fbcbe45600e425345c13a39b2",
	"tab2":         "e6faa787677e284759751e7a47d768474d1f1c7cfe4e3f96f78656f0e6b81c99",
	"tab5":         "70e5d99907b3841afb8ef8aebe201d5f3725fcb8b17b063073bd15389dfbc29c",
}

// TestRunAllExperiments: one concurrent sweep of the registry — RunAll with
// no ids defaults to every registered experiment — returns a non-empty table
// per id in stable id order, byte-identical to the serial runs outside
// wallClockExperiments, and each pinned table renders to its entry in
// experimentDigests. Under -short the sweep covers a fast representative
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
		got := tab.Render()
		if got != serial.render {
			t.Errorf("%s: concurrent table differs from serial run:\n--- serial ---\n%s--- sweep ---\n%s",
				tab.ID, serial.render, got)
		}
		if memoPricedExperiments[tab.ID] {
			continue
		}
		sum := sha256.Sum256([]byte(got))
		if d := hex.EncodeToString(sum[:]); d != experimentDigests[tab.ID] {
			t.Errorf("%s: table digest %s, want %q", tab.ID, d, experimentDigests[tab.ID])
		}
	}
	if testing.Short() {
		return
	}
	for id := range experimentDigests {
		if !slices.Contains(want, id) || wallClockExperiments[id] || memoPricedExperiments[id] {
			t.Errorf("experimentDigests pins %s, which is not a registered table the sweep compares", id)
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
