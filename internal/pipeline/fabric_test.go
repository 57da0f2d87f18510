package pipeline

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/shard"
)

// TestMeasureFabricParity runs the fabric measurement end to end over unix
// sockets: the socket run must train bit-identically to the in-proc
// reference (exact loss, zero parameter divergence) and report non-zero
// measured gather and scatter wall clock.
func TestMeasureFabricParity(t *testing.T) {
	probe := FabricProbe{Nodes: 2, Depth: 2, Iters: 4, Batch: 128, Network: "unix"}
	m, err := MeasureFabric(data.CriteoKaggle(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fabric != "unix" {
		t.Fatalf("fabric = %q want unix", m.Fabric)
	}
	if m.MaxStateDiff != 0 {
		t.Fatalf("socket fabric diverged from in-proc: max diff %g", m.MaxStateDiff)
	}
	if m.GatherWallPerIter <= 0 || m.ScatterWallPerIter <= 0 {
		t.Fatalf("expected measured wall times, got gather %v scatter %v",
			m.GatherWallPerIter, m.ScatterWallPerIter)
	}
	if m.A2ABytesPerIter <= 0 {
		t.Fatalf("no accounted all-to-all volume: %d", m.A2ABytesPerIter)
	}

	// The in-proc shortcut skips the socket runs entirely and reports a
	// zero scatter wall (a shared address space moves no scatter bytes).
	probe.Network = "inproc"
	ref, err := MeasureFabric(data.CriteoKaggle(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fabric != "inproc" {
		t.Fatalf("fabric = %q want inproc", ref.Fabric)
	}
	if ref.ScatterWallPerIter != 0 {
		t.Fatalf("in-proc scatter wall = %v want 0", ref.ScatterWallPerIter)
	}
	if ref.FinalLoss != m.FinalLoss {
		t.Fatalf("reference loss %v != fabric loss %v", ref.FinalLoss, m.FinalLoss)
	}
}

// TestMeasureFabricTransportEqualsNetwork: a probe handed an already-dialed
// transport measures the same run as one that names the network and lets
// MeasureFabric start the fabric — same loss, same traffic counters (wall
// clock aside). This is the hotline-bench -fabric path through the single
// entry point.
func TestMeasureFabricTransportEqualsNetwork(t *testing.T) {
	cfg := data.CriteoKaggle()
	probe := FabricProbe{Nodes: 2, Depth: 2, Iters: 4, Batch: 128, Network: "unix"}
	byNetwork, err := MeasureFabric(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}

	fab, err := shard.StartLocalFabric(probe.Nodes, "unix", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	probe.Network, probe.Transport = "", fab.Transport
	byTransport, err := MeasureFabric(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if byTransport.Fabric != "unix" || byTransport.MaxStateDiff != 0 {
		t.Fatalf("dialed transport run: fabric %q, max diff %g", byTransport.Fabric, byTransport.MaxStateDiff)
	}
	if byTransport.FinalLoss != byNetwork.FinalLoss {
		t.Fatalf("loss %v over the dialed transport, %v over the named network",
			byTransport.FinalLoss, byNetwork.FinalLoss)
	}
	if got, want := byTransport.Stats.WithoutWall(), byNetwork.Stats.WithoutWall(); got != want {
		t.Fatalf("traffic counters differ:\n transport %+v\n network   %+v", got, want)
	}
}
