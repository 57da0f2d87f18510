package train

import (
	"hotline/internal/model"
	"hotline/internal/shard"
)

// NewHotlineSharded wraps a model in the Hotline µ-batch executor with its
// embedding tables partitioned across the nodes of svc (row-wise under the
// service's placement policy, with per-node hot-entry device caches).
// Training math is bit-identical to the unsharded executor for every node
// count and placement — the service only simulates row placement, caching
// and all-to-all traffic — so the Eq. 5 parity argument carries over
// unchanged while svc.Snapshot() reports what the topology actually moved.
//
// Fabric gathers run on the service's gather engine: at the default depth
// the non-popular µ-batch's windows stream while the popular µ-batch
// computes, and svc.Gatherer().Stats() reports how much gather time stayed
// exposed. Set Depth = 1 for the synchronous ablation (same traffic, fully
// exposed gathers).
func NewHotlineSharded(m *model.Model, lr float32, svc *shard.Service) *HotlineTrainer {
	m.ShardEmbeddings(svc)
	t := NewHotline(m, lr)
	t.Shard = svc
	return t
}
