package experiments

import (
	"fmt"
	"slices"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/metrics"
	"hotline/internal/model"
	"hotline/internal/report"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// The quant scenario measures the precision-tiered device caches: at one
// fixed per-node HBM byte budget on the skewed Criteo stream, each cache
// format (fp32, fp16, int8, hot-fp32+warm-int8) trains the same functional
// model, and the table prices what the narrower tiers buy (more resident
// rows, higher hit rate, fewer all-to-all bytes) against what they cost
// (measured state divergence and ΔAUC from serving warm rows through the
// fused quantize→dequantize round trip).

func init() {
	registry["mn-quant"] = regEntry{"Multi-node quantized warm-tier caches: precision sweep at a fixed HBM budget (measured)", MNQuant}
}

// mnQuantSweep is the cache formats the scenario measures.
var mnQuantSweep = []shard.QuantMode{shard.QuantOff, shard.QuantFP16, shard.QuantINT8, shard.QuantMixed}

// quantRun is one functional training run of the precision sweep.
type quantRun struct {
	m      *model.Model
	st     shard.Stats
	rows   int       // steady-state cached rows across nodes
	losses []float64 // per-iteration losses (the fp32 bit-identity witness)
	eval   metrics.Summary
}

// runQuant trains the Hotline executor batch-by-batch on sharded tables
// whose device caches use the given precision mode at a fixed byte budget,
// and evaluates the final model on a held-out batch.
func runQuant(fn data.Config, nodes, iters, batch int, budget int64, q shard.QuantMode, hot shard.HotClassifier) quantRun {
	const seed = 42
	svc := shard.New(shard.Config{
		Nodes: nodes, CacheBytes: budget, RowBytes: int64(fn.EmbedDim) * 4, Quant: q,
	}, hot)
	tr := train.NewHotlineSharded(model.New(fn, seed), 0.1, svc)
	tr.LearnSamples = 512
	gen := data.NewGenerator(fn)
	losses := make([]float64, iters)
	for i := 0; i < iters; i++ {
		losses[i] = tr.Step(gen.NextBatch(batch))
	}
	return quantRun{
		m: tr.M, st: svc.Snapshot(), rows: svc.CacheEntries(), losses: losses,
		eval: heldOutEval(fn, tr.M),
	}
}

// mnQuantBudget is the sweep's fixed per-node HBM budget: a quarter of the
// learned hot set at fp32, so full precision cannot hold the head of the
// distribution and the narrow tiers' extra rows are load-bearing.
func mnQuantBudget(fn data.Config) int64 { return data.ScaledHotBudget(fn) / 4 }

// effectiveHotBudget reprices the EAL hot-set learning budget for a cache
// format — the placement-side half of the effective-capacity story. The
// paper sizes the hot set to what the HBM tier can replicate; a narrow
// storage width packs more rows into the same bytes, so the uniform
// quantized modes learn proportionally larger hot sets (4·dim fp32 bytes of
// learning budget per WarmWidth.RowBytes of real HBM). The mixed mode
// splits the budget instead: half learns an exact fp32 hot tier, and the
// open warm tier fills the other half with int8 rows at admission time.
func effectiveHotBudget(budget int64, dim int, q shard.QuantMode) int64 {
	if q == shard.QuantMixed {
		return budget / 2
	}
	return budget * 4 * int64(dim) / q.WarmWidth().RowBytes(dim)
}

// mnQuantClassifier learns the popularity classifier for one cache format:
// the same profiled access counts for every mode, ranked identically, cut
// at the format's repriced hot budget.
func mnQuantClassifier(fn data.Config, budget int64, q shard.QuantMode) shard.HotClassifier {
	prof := data.ProfileEpoch(data.NewGenerator(fn), 512)
	return embedding.PlacementFromCounts(prof.Counts(), fn.NumTables, fn.EmbedDim,
		effectiveHotBudget(budget, fn.EmbedDim, q))
}

// MNQuant sweeps the device-cache precision format at a fixed HBM byte
// budget on Criteo Kaggle's skewed access stream. Per format it reports the
// steady-state resident rows (the effective-capacity multiplier), the
// device-cache hit rate, the fraction of hits served from the narrow warm
// tier through the fused dequantize-gather kernel, the per-iteration
// all-to-all and cache-fill volumes, and the functional cost: maximum
// parameter divergence and ΔAUC against the fp32 run. The fp32 row is run
// twice — its divergence column doubling as the bit-identity gate (exact
// same losses, MaxStateDiff exactly 0) that proves quantization-off changes
// nothing.
func MNQuant() *report.Table {
	t := &report.Table{Header: []string{
		"cache format", "rows held", "hit rate", "warm-hit frac",
		"A2A KB/iter", "fill KB", "max |Δw| vs fp32", "ΔAUC vs fp32"}}
	fn := data.CriteoKaggle()
	fn.Samples = 2048
	const nodes, iters, batch = 4, 10, 256
	budget := mnQuantBudget(fn)

	ref := runQuant(fn, nodes, iters, batch, budget, shard.QuantOff, mnQuantClassifier(fn, budget, shard.QuantOff))
	for _, q := range mnQuantSweep {
		// The fp32 row re-runs its own reference configuration: any nonzero
		// divergence or loss mismatch means quantization-off is not inert.
		r := runQuant(fn, nodes, iters, batch, budget, q, mnQuantClassifier(fn, budget, q))
		div := model.MaxStateDiff(ref.m, r.m)
		if q == shard.QuantOff && (div != 0 || !slices.Equal(ref.losses, r.losses)) {
			t.Notes = "FP32 RERUN DIVERGED — quantization-off must be bit-identical, see TestQuantOffBitIdentical"
		}
		t.AddRow(q.String(),
			fmt.Sprint(r.rows),
			pct(r.st.HitRate(), 1),
			pct(quantHitFrac(r.st), 1),
			fmt.Sprintf("%.1f", float64(r.st.A2ABytes())/float64(iters)/1024),
			fmt.Sprintf("%.1f", float64(r.st.FillBytes)/1024),
			fmt.Sprintf("%.2g", div),
			fmt.Sprintf("%+.4f", r.eval.AUC-ref.eval.AUC))
	}
	if t.Notes == "" {
		t.Notes = fmt.Sprintf("functional layer, fixed %d KB device cache per node (¼ of the fp32 hot set): "+
			"warm rows are stored narrow and served through the fused dequantize-gather kernel, so the same "+
			"bytes hold more of the head of the skewed distribution — more hits, fewer all-to-all bytes — "+
			"while the Δw and ΔAUC columns price the quantization error that buys", budget/1024)
	}
	return t
}

// quantHitFrac is the share of cache hits served from the narrow warm tier.
func quantHitFrac(st shard.Stats) float64 {
	if st.CacheHits == 0 {
		return 0
	}
	return float64(st.QuantHits) / float64(st.CacheHits)
}
