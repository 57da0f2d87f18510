package experiments

import (
	"fmt"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/metrics"
	"hotline/internal/model"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
)

// The depth scenario measures the queue-depth-vs-staleness tradeoff of the
// depth-k prefetch pipeline: a deeper lookahead gives the async engine more
// compute to hide fabric gathers under (the exposed fraction falls), but
// windows wait longer, so more of their staged rows are rewritten by
// intervening sparse updates and must be delta-repaired — extra fabric
// traffic the shallow pipeline never pays. The opt-in stale mode skips the
// repair and measures what that staleness costs in accuracy instead.

func init() {
	registry["mn-depth"] = regEntry{"Multi-node sharded embeddings: prefetch depth k sweep (measured)", MNDepth}
}

// mnDepthSweep is the pipeline depths the scenario measures.
var mnDepthSweep = []int{1, 2, 4, 8}

// heldOutEval scores a trained model on a batch disjoint from the early
// training stream.
func heldOutEval(fn data.Config, m *model.Model) metrics.Summary {
	evalGen := data.NewGenerator(fn)
	evalGen.NextBatch(1024)
	evalBatch := evalGen.NextBatch(1024)
	return metrics.Evaluate(m.Predict(evalBatch), evalBatch.Labels)
}

// depthProbe is the mn-overlap / mn-depth run: the full-size model trained
// on sharded tables at pipeline depth k (1 is the fully synchronous
// baseline), serving dirtied rows stale instead of repairing them under
// stale.
func depthProbe(fn data.Config, nodes, k int, stale bool) pipeline.Probe {
	return pipeline.Probe{
		Shard: shard.Config{Nodes: nodes, CacheBytes: data.ScaledHotBudget(fn)},
		Depth: k, Iters: 10, Batch: 256,
		Attach: func(svc *shard.Service) { svc.SetStaleReads(stale) },
	}
}

// MNDepth sweeps the prefetch pipeline depth k over {1,2,4,8} at 4 nodes on
// Criteo Kaggle: per depth it reports the measured exposed-gather fraction
// (against the synchronous baseline), the dirty-row repair traffic the
// depth incurs, the staleness cost of skipping the repair (rows served
// stale, state divergence and AUC delta of the stale-mode run), and the
// Hotline iteration time when the timing model prices the depth's measured
// exposure. Depth 1 is the degenerate single-window queue — its gather is
// synchronous by construction, so its exposure anchors the sweep near
// 100%; depth 2 is the classic cross-iteration pipeline; deeper queues
// trade repair traffic for more hiding time.
func MNDepth() *report.Table {
	t := &report.Table{Header: []string{
		"depth k", "windows", "exposed frac", "repair rows", "repair KB",
		"stale rows", "stale max |Δw|", "stale ΔAUC", "Hotline iter"}}
	// The timing-model workload uses the pristine dataset config (its
	// measurement memos are shared across experiments and keyed by dataset
	// name); only the functional training runs on a down-sampled copy.
	cfg := data.CriteoKaggle()
	fn := cfg
	fn.Samples = 2048
	const nodes = 4
	w := pipeline.NewShardedWorkload(cfg, 4096*nodes, cost.PaperCluster(nodes))

	// In-proc runs record no fabric error.
	sync, _ := depthProbe(fn, nodes, 1, false).Train(fn)

	for _, k := range mnDepthSweep {
		// Depth 1 runs the synchronous code path verbatim (its single
		// window belongs to the consuming forward), so the sync baseline
		// IS its repair and stale run — the row anchors at exactly 100%
		// exposure with no repair and no staleness.
		repair, staleR := sync, sync
		if k > 1 {
			repair, _ = depthProbe(fn, nodes, k, false).Train(fn)
			staleR, _ = depthProbe(fn, nodes, k, true).Train(fn)
		}

		exposedFrac := shard.ExposedFrac(repair.Stats, sync.Stats)
		if model.MaxStateDiff(sync.Model, repair.Model) != 0 {
			// Repair mode must stay bit-identical to batch-by-batch
			// stepping; a divergence here is a bug, surface it loudly.
			t.Notes = "REPAIR-MODE STATE DIVERGED — see TestPipelinedOverlapDeterminism"
		}

		w.Shard.SetExposedFrac(exposedFrac)
		t.AddRow(fmt.Sprint(k),
			fmt.Sprint(repair.Stats.Windows),
			pct(exposedFrac, 1),
			fmt.Sprint(repair.Stats.RepairRows),
			fmt.Sprintf("%.1f", float64(repair.Stats.RepairBytes)/1024),
			fmt.Sprint(staleR.Stats.StaleRows),
			fmt.Sprintf("%.2g", model.MaxStateDiff(repair.Model, staleR.Model)),
			fmt.Sprintf("%+.4f", heldOutEval(fn, staleR.Model).AUC-heldOutEval(fn, repair.Model).AUC),
			pipeline.NewHotline().Iteration(w).Total.String())
	}
	if t.Notes == "" {
		t.Notes = "wall-clock, functional layer: depth k keeps up to k gather windows in " +
			"flight; staged rows rewritten by intervening sparse updates are delta-repaired " +
			"before use (bit-identical to batch-by-batch stepping), or served stale under " +
			"the opt-in stale mode, whose accuracy cost the ΔAUC column prices"
	}
	return t
}
