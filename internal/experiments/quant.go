package experiments

import (
	"fmt"
	"slices"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/model"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
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

// quantProbe is one mn-quant run: the full-size model trained on 4 nodes
// whose device caches hold format q at the sweep's fixed byte budget,
// classified by q's repriced hot set.
func quantProbe(fn data.Config, iters int, q shard.QuantMode) pipeline.Probe {
	return pipeline.Probe{
		Shard: shard.Config{Nodes: 4, CacheBytes: mnQuantBudget(fn), Quant: q},
		Hot:   mnQuantClassifier(fn, mnQuantBudget(fn), q), Iters: iters, Batch: 256,
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
	const iters = 10

	// In-proc runs record no fabric error.
	ref, _ := quantProbe(fn, iters, shard.QuantOff).Train(fn)
	refAUC := heldOutEval(fn, ref.Model).AUC
	for _, q := range mnQuantSweep {
		// The fp32 row re-runs its own reference configuration: any nonzero
		// divergence or loss mismatch means quantization-off is not inert.
		r, _ := quantProbe(fn, iters, q).Train(fn)
		div := model.MaxStateDiff(ref.Model, r.Model)
		if q == shard.QuantOff && (div != 0 || !slices.Equal(ref.Losses, r.Losses)) {
			t.Notes = "FP32 RERUN DIVERGED — quantization-off must be bit-identical, see TestQuantOffBitIdentical"
		}
		t.AddRow(q.String(),
			fmt.Sprint(r.Service.CacheEntries()),
			pct(r.Stats.HitRate(), 1),
			pct(quantHitFrac(r.Stats), 1),
			fmt.Sprintf("%.1f", float64(r.Stats.A2ABytes())/float64(iters)/1024),
			fmt.Sprintf("%.1f", float64(r.Stats.FillBytes)/1024),
			fmt.Sprintf("%.2g", div),
			fmt.Sprintf("%+.4f", heldOutEval(fn, r.Model).AUC-refAUC))
	}
	if t.Notes == "" {
		t.Notes = fmt.Sprintf("functional layer, fixed %d KB device cache per node (¼ of the fp32 hot set): "+
			"warm rows are stored narrow and served through the fused dequantize-gather kernel, so the same "+
			"bytes hold more of the head of the skewed distribution — more hits, fewer all-to-all bytes — "+
			"while the Δw and ΔAUC columns price the quantization error that buys", mnQuantBudget(fn)/1024)
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
