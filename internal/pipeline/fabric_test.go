package pipeline

import (
	"testing"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/shard"
)

// TestAllToAllTimeTinyWindow is the regression test for the truncating
// per-node division: a per-window Sub delta smaller than the node count
// used to price zero bytes per participant, so tiny windows moved free of
// any bandwidth cost. The slow fabric makes the single rounded-up byte
// observable at Duration granularity (on the paper's IB it is sub-ns).
func TestAllToAllTimeTinyWindow(t *testing.T) {
	slow := cost.PaperCluster(4)
	slow.IB = cost.LinkSpec{Name: "slow", Bandwidth: 1, A2AEff: 1} // 1 byte/s
	tiny := shard.Stats{Nodes: 8, GatherBytes: 3}                  // 3 bytes across 8 nodes
	zero := shard.Stats{Nodes: 8}
	// The regression: 3/8 truncated to 0 bytes per node, so a tiny delta
	// priced exactly like an empty one — the bandwidth term vanished.
	if got, free := AllToAllTime(tiny, slow), AllToAllTime(zero, slow); got <= free {
		t.Fatalf("tiny window priced like empty (%v <= %v); per-node share must round up", got, free)
	}
	// Ceiling, not floor: 3 bytes over 8 nodes price like 1 byte per node.
	if got, want := AllToAllTime(tiny, slow), cost.AllToAllTime(slow.IB, 1, 8); got != want {
		t.Fatalf("tiny window = %v want ceil pricing %v", got, want)
	}
	// Exact multiples are unchanged by the rounding.
	sys := cost.PaperCluster(4)
	even := shard.Stats{Nodes: 4, GatherBytes: 1 << 20}
	if got, want := AllToAllTime(even, sys), cost.AllToAllTime(sys.IB, 1<<18, 4); got != want {
		t.Fatalf("even split = %v want %v", got, want)
	}
}

// TestAllToAllTimeLinkSelection is the regression test for the guard/link
// disagreement: the snapshot's node count is authoritative, and NVLink only
// applies when all shard nodes fit one box of the given system.
func TestAllToAllTimeLinkSelection(t *testing.T) {
	const bytes = 1 << 20
	box4 := cost.PaperSystem(4)     // single box, 4 GPUs
	cluster := cost.PaperCluster(4) // 4 IB-connected boxes

	if got := AllToAllTime(shard.Stats{Nodes: 1, GatherBytes: bytes}, box4); got != 0 {
		t.Fatalf("single shard node must move nothing: %v", got)
	}

	// 4 shard nodes inside one 4-GPU box: intra-node NVLink.
	in := shard.Stats{Nodes: 4, GatherBytes: bytes}
	if got, want := AllToAllTime(in, box4), cost.AllToAllTime(box4.NVLink, bytes/4, 4); got != want {
		t.Fatalf("intra-box a2a = %v want NVLink %v", got, want)
	}

	// The regression: 8 shard nodes cannot fit a 4-GPU box, so pricing the
	// traffic over NVLink (the old sys.Nodes-only rule) used the wrong
	// link; it must cross the inter-node fabric.
	out := shard.Stats{Nodes: 8, GatherBytes: bytes}
	if got, want := AllToAllTime(out, box4), cost.AllToAllTime(box4.IB, bytes/8, 8); got != want {
		t.Fatalf("overflowing a2a = %v want IB %v", got, want)
	}
	if nv := cost.AllToAllTime(box4.NVLink, bytes/8, 8); AllToAllTime(out, box4) == nv {
		t.Fatal("overflowing topology must not be priced over NVLink")
	}

	// A multi-box system always prices the fabric, with the snapshot's own
	// participant count (2 shard nodes on a 4-node cluster).
	two := shard.Stats{Nodes: 2, GatherBytes: bytes}
	if got, want := AllToAllTime(two, cluster), cost.AllToAllTime(cluster.IB, bytes/2, 2); got != want {
		t.Fatalf("cluster a2a = %v want IB over s.Nodes %v", got, want)
	}
}

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
