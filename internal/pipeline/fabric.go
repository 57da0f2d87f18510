package pipeline

import (
	"fmt"
	"time"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/sim"
	"hotline/internal/train"
)

// AllToAllTime prices a shard snapshot's gather+scatter volume with the cost
// models. The snapshot's own node count is authoritative for both the guard
// and the exchange: s.Nodes participants each move their per-node share, and
// the traffic stays on intra-node NVLink only when those participants all
// fit inside sys's single box (sys.Nodes <= 1 and at most one shard node per
// GPU); any disagreement — more shard nodes than one box holds, or a
// multi-box system — prices the inter-node fabric.
func AllToAllTime(s shard.Stats, sys cost.System) sim.Duration {
	if s.Nodes <= 1 {
		return 0
	}
	// Ceiling division: a per-window Sub delta smaller than the node count
	// must still price at least one byte per participant, not truncate to
	// zero fabric time (tiny windows otherwise read as free).
	perNode := (s.A2ABytes() + int64(s.Nodes) - 1) / int64(s.Nodes)
	link := sys.IB
	if sys.Nodes <= 1 && s.Nodes <= sys.GPUsPerNode {
		link = sys.NVLink
	}
	return cost.AllToAllTime(link, perNode, s.Nodes)
}

// FabricProbe configures one MeasureFabric measurement.
type FabricProbe struct {
	Nodes int // shard node count (>= 2)
	Depth int // prefetch pipeline depth; < 1 selects the executors' default
	// Iters and Batch size the functional run; zero selects 8 x 256.
	Iters, Batch int
	// Network names the socket family ("unix" or "tcp") of a local fabric
	// started for the run: one NodeServer per node behind a real socket
	// (unix sockets in a temp dir, or loopback TCP on port 0), so the wall
	// times are honest kernel-crossing numbers even without separate OS
	// processes. "" or "inproc" measures only the in-proc reference run.
	Network string
	// Transport, when set, is an already-connected fabric measured instead
	// of a local one — the caller owns its lifetime (e.g. the hotline-bench
	// coordinator dialing real hotline-node worker processes).
	Transport shard.Transport
}

// FabricMeasurement is one functional training run over a real fabric
// transport: the measured wall clock the transport spent moving gather and
// scatter traffic — numbers the analytic AllToAllTime model can be
// compared against — plus the bit-parity evidence (final loss and maximum
// parameter divergence) against the in-proc reference run of the identical
// stream.
type FabricMeasurement struct {
	// Fabric is the transport's Name() ("inproc", "unix", "tcp").
	Fabric string
	Nodes  int
	Depth  int
	Iters  int
	// FinalLoss is the last iteration's training loss.
	FinalLoss float64
	// MaxStateDiff is the largest absolute parameter difference vs the
	// in-proc reference run; 0 means bit-identical training.
	MaxStateDiff float64
	// GatherWallPerIter / ScatterWallPerIter are the measured per-iteration
	// wall-clock totals the transport spent on fetches and scatter pushes.
	GatherWallPerIter  time.Duration
	ScatterWallPerIter time.Duration
	// A2ABytesPerIter is the accounted all-to-all volume per iteration (the
	// quantity the analytic model prices).
	A2ABytesPerIter int64
	// Stats is the full training-side counter snapshot of the measured run.
	Stats shard.Stats
}

// record fills the per-run fields from one probe run over the named fabric.
func (m *FabricMeasurement) record(fabric string, res ProbeResult) {
	iters := time.Duration(m.Iters)
	m.Fabric = fabric
	m.FinalLoss = res.Losses[len(res.Losses)-1]
	m.GatherWallPerIter = res.Stats.GatherWall / iters
	m.ScatterWallPerIter = res.Stats.ScatterWall / iters
	m.A2ABytesPerIter = res.Stats.A2ABytes() / int64(m.Iters)
	m.Stats = res.Stats
}

// MeasureFabric trains the pipelined Hotline executor functionally on the
// probe shape of cfg twice over sharded services — once on the in-proc fast
// path as the reference, once over the probe's fabric (skipped when the
// probe names none) — and returns the fabric run's measured gather/scatter
// wall clock together with its parity against the reference.
func MeasureFabric(cfg data.Config, p FabricProbe) (FabricMeasurement, error) {
	if p.Nodes < 2 {
		return FabricMeasurement{}, fmt.Errorf("pipeline: fabric measurement needs >= 2 nodes, got %d", p.Nodes)
	}
	if p.Depth < 1 {
		p.Depth = train.DefaultDepth
	}
	if p.Iters < 1 {
		p.Iters = 8
	}
	if p.Batch < 1 {
		p.Batch = 256
	}
	fabric := p.Transport
	if fabric == nil && p.Network != "" && p.Network != "inproc" {
		fab, err := shard.StartLocalFabric(p.Nodes, p.Network, 0, nil)
		if err != nil {
			return FabricMeasurement{}, fmt.Errorf("pipeline: start %s fabric: %w", p.Network, err)
		}
		defer fab.Close()
		fabric = fab.Transport
	}

	fn := ProbeShape(cfg)
	run := Probe{
		Shard: shard.Config{Nodes: p.Nodes, CacheBytes: DefaultShardCacheBytes(fn)},
		Depth: p.Depth, Iters: p.Iters, Batch: p.Batch,
	}
	ref, err := run.Train(fn)
	if err != nil {
		return FabricMeasurement{}, fmt.Errorf("pipeline: in-proc reference run: %w", err)
	}
	m := FabricMeasurement{Nodes: p.Nodes, Depth: p.Depth, Iters: p.Iters}
	m.record("inproc", ref)
	if fabric == nil {
		return m, nil
	}
	refLoss := m.FinalLoss

	run.Attach = func(svc *shard.Service) { svc.SetTransport(fabric) }
	res, err := run.Train(fn)
	if err != nil {
		return FabricMeasurement{}, fmt.Errorf("pipeline: %s fabric run: %w", fabric.Name(), err)
	}
	m.record(fabric.Name(), res)
	m.MaxStateDiff = model.MaxStateDiff(ref.Model, res.Model)
	if m.FinalLoss != refLoss {
		return m, fmt.Errorf("pipeline: %s fabric diverged from in-proc: loss %v vs %v", fabric.Name(), m.FinalLoss, refLoss)
	}
	return m, nil
}
