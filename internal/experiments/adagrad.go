package experiments

import (
	"fmt"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/report"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// mn-adagrad is the end-to-end sharded-training scenario under the DLRM
// reference's production optimizer: dense + sparse Adagrad on the Hotline
// µ-batch executor over sharded embedding tables. The Bag lift of
// ApplySparseAdagrad (globally-indexed accumulators, fixed serial row
// order) makes sharded Adagrad bit-identical to the single-node executor
// for every node count, while the rule's merged per-mini-batch update keeps
// the µ-batch executor at accuracy parity with the Adagrad baseline.

func init() {
	registry["mn-adagrad"] = regEntry{"Multi-node sharded training under Adagrad (measured)", MNAdagrad}
}

// MNAdagrad trains the Adagrad Hotline executor on sharded tables at
// 1/2/4 nodes and reports the measured traffic plus the state divergence
// from (a) the single-node Adagrad executor — which must be zero — and
// (b) the full-mini-batch Adagrad baseline, which stays at Fig 18-level
// parity (float reduction order is the only difference).
func MNAdagrad() *report.Table {
	t := &report.Table{Header: []string{
		"nodes", "loss", "AUC", "cache hit", "a2a KB/iter",
		"vs 1-node adagrad", "vs baseline adagrad"}}
	cfg := data.CriteoKaggle()
	fn := cfg
	fn.Samples = 2048
	iters := TrainIters()
	if iters > 24 {
		iters = 24 // the scenario's point is parity, not a long curve
	}
	const batch, seed = 128, 404
	run := train.RunConfig{BatchSize: batch, Iters: iters, EvalEvery: iters, EvalSize: 512}

	newModel := func() *model.Model { return model.New(fn, seed).SetOptimizer(model.NewAdagrad) }
	// References: the unsharded Adagrad Hotline executor and the Adagrad
	// baseline, trained on the identical stream.
	ref := train.NewHotline(newModel(), 0.1)
	ref.LearnSamples = 512
	train.Run(ref, data.NewGenerator(fn), run)
	base := train.NewBaseline(newModel(), 0.1)
	train.Run(base, data.NewGenerator(fn), run)

	for _, nodes := range []int{1, 2, 4} {
		svc := shard.New(shard.Config{
			Nodes: nodes, CacheBytes: data.ScaledHotBudget(fn),
			RowBytes: int64(fn.EmbedDim) * 4,
		}, nil)
		tr := train.NewHotlineSharded(newModel(), 0.1, svc)
		tr.LearnSamples = 512
		curve := train.Run(tr, data.NewGenerator(fn), run)
		last := curve[len(curve)-1]
		st := svc.Snapshot()
		a2aKB := float64(st.A2ABytes()) / float64(iters) / 1024

		vsRef := model.MaxStateDiff(ref.M, tr.M)
		refCell := fmt.Sprintf("%.3g", vsRef)
		if vsRef == 0 {
			refCell = "bit-identical"
		}
		t.AddRow(fmt.Sprint(nodes),
			fmt.Sprintf("%.4f", last.Loss),
			fmt.Sprintf("%.4f", last.Metrics.AUC),
			pct(st.HitRate(), 1),
			fmt.Sprintf("%.1f", a2aKB),
			refCell,
			fmt.Sprintf("%.3g", model.MaxStateDiff(base.M, tr.M)))
	}
	t.Notes = "Adagrad is non-linear in the gradient, so the rule merges each " +
		"table's µ-batch gradients into ONE update per mini-batch (model." +
		"NewAdagrad); sharding must then be bit-identical to the single-node " +
		"Adagrad executor, and the divergence from the baseline stays at float-" +
		"reduction-order scale"
	return t
}
