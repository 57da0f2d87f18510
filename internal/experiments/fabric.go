package experiments

import (
	"fmt"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
)

func init() {
	registry["mn-fabric"] = regEntry{"Multi-node sharded embeddings: real socket fabric vs in-proc (measured wall clock)", MNFabric}
}

// fabricIters / fabricBatch size the mn-fabric functional runs: enough
// iterations past the learning phase that the prefetch pipeline is in
// steady state, small enough that the socket grid finishes in CI.
const (
	fabricIters = 6
	fabricBatch = 256
)

// MNFabric trains the pipelined Hotline executor at 2/4/8 nodes twice per
// row — once on the in-proc fast path, once over a real unix-socket fabric
// where every shard node is a NodeServer behind its own socket — and
// reports the transport's measured per-iteration gather/scatter wall clock
// next to the analytic pipeline.AllToAllTime the timing models price. The "max
// diff" column is the bit-parity evidence: the socket run must reproduce
// the in-proc parameters exactly (0 means bit-identical), so the measured
// wall times are for provably the same computation.
func MNFabric() *report.Table {
	t := &report.Table{Header: []string{
		"nodes", "fabric", "gather wall/iter", "scatter wall/iter",
		"a2a KB/iter", "a2a time (analytic)", "max diff"}}
	cfg := data.CriteoKaggle()
	for _, nodes := range []int{2, 4, 8} {
		sys := cost.PaperCluster(nodes)
		for _, network := range []string{"inproc", "unix"} {
			m, err := pipeline.MeasureFabric(cfg, pipeline.FabricProbe{
				Nodes: nodes, Iters: fabricIters, Batch: fabricBatch, Network: network,
			})
			if err != nil {
				t.AddRow(fmt.Sprint(nodes), network, "error: "+err.Error(), "-", "-", "-", "-")
				continue
			}
			st := shard.Stats{Nodes: nodes, GatherBytes: m.A2ABytesPerIter}
			t.AddRow(fmt.Sprint(nodes), m.Fabric,
				m.GatherWallPerIter.String(), m.ScatterWallPerIter.String(),
				fmt.Sprintf("%.1f", float64(m.A2ABytesPerIter)/1024),
				pipeline.AllToAllTime(st, sys).String(),
				fmt.Sprintf("%g", m.MaxStateDiff))
		}
	}
	t.Notes = "each unix row runs every shard node as a NodeServer behind its own " +
		"socket: gather/scatter wall is measured kernel-crossing time, the analytic " +
		"column is the link model the pipelines price, and max diff 0 proves the " +
		"socket run trained bit-identically to the in-proc fast path"
	return t
}
