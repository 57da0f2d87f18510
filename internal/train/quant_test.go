package train

import (
	"iter"
	"slices"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

// modHot is a deterministic popularity classifier for the quantized
// determinism grid: every fourth row is "hot", so the mixed mode exercises
// both tiers on every batch without profiling a stream. Its bitmap spans
// modHotRows rows of every table, more than any table these tests train.
type modHot struct{}

const modHotRows = 1 << 20

var modHotBits = slices.Repeat([]uint64{0x1111111111111111}, modHotRows/64)

func (modHot) HotBits(int) []uint64 { return modHotBits }

// Ranked yields nothing: no test swaps modHot's set into a service.
func (modHot) Ranked() iter.Seq2[int, int32] { return func(func(int, int32) bool) {} }

// TestPipelinedQuantizedDeterminism extends the depth-k determinism
// contract to the precision-tiered caches: for every quantized cache mode,
// every pipeline depth k and both update rules (the Adagrad half sampled
// under -short, see ruleGrid), training with StepLookahead is
// byte-identical to fully synchronous batch-by-batch training under the SAME
// mode — the warm tier's fused dequantize-gather and the dirty-row repair
// path must produce the same bits whether a staged row is consumed
// immediately or k-1 iterations later. (Quantized training legitimately
// differs from fp32 training; what may never differ is pipelined vs
// unpipelined.)
func TestPipelinedQuantizedDeterminism(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	const seed, iters, batch, nodes = 42, 8, 128, 4

	batches := data.NewGenerator(cfg).NextBatches(iters, batch)

	for _, rule := range updateRules {
		_, depths := ruleGrid(rule.name)
		newTrainer := func(q shard.QuantMode, depth int) (*HotlineTrainer, *shard.Service) {
			var hot shard.HotClassifier
			if q == shard.QuantMixed {
				hot = modHot{} // a nil classifier would degenerate Mixed to all-fp32
			}
			svc := shard.New(shard.Config{
				Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
				Quant: q,
			}, hot)
			tr := NewHotlineSharded(model.New(cfg, seed).SetOptimizer(rule.build), 0.1, svc)
			tr.Depth = depth
			tr.LearnSamples = 512
			return tr, svc
		}
		fp32ref, _ := newTrainer(shard.QuantOff, DefaultDepth)
		for i := 0; i < iters; i++ {
			fp32ref.Step(batches[i])
		}

		for _, q := range []shard.QuantMode{shard.QuantFP16, shard.QuantINT8, shard.QuantMixed} {
			// Synchronous batch-by-batch reference at this quant mode.
			ref, refSvc := newTrainer(q, 1)
			for i := 0; i < iters; i++ {
				ref.Step(batches[i])
			}
			if st := refSvc.Snapshot(); st.QuantHits == 0 || st.DequantRows == 0 {
				t.Fatalf("%s %s: reference run never served a warm-tier hit (quantHits=%d dequantRows=%d); the grid is vacuous",
					rule.name, q, st.QuantHits, st.DequantRows)
			}
			// The quantized reference must actually train differently from fp32
			// — otherwise "pipelined == synchronous" would hold trivially.
			if model.DenseStateEqual(fp32ref.M, ref.M) && model.SparseStateEqual(fp32ref.M, ref.M) {
				t.Fatalf("%s %s: quantized training is bit-identical to fp32; the warm tier served exact values", rule.name, q)
			}

			for _, k := range depths {
				tr, svc := newTrainer(q, k)
				StepAll(tr, batches, nil)
				if !model.DenseStateEqual(ref.M, tr.M) {
					t.Fatalf("%s %s k=%d: pipelined dense state diverged from synchronous", rule.name, q, k)
				}
				if !model.SparseStateEqual(ref.M, tr.M) {
					t.Fatalf("%s %s k=%d: pipelined sparse state diverged from synchronous", rule.name, q, k)
				}
				if st := svc.Gatherer().Stats(); st.StaleRows != 0 {
					t.Fatalf("%s %s k=%d: repair mode consumed %d stale rows", rule.name, q, k, st.StaleRows)
				}
			}
		}
	}
}

// TestQuantOffMatchesSeedBehavior pins the QuantOff zero value to the
// pre-quantization cache bit for bit: an explicitly-defaulted config and
// one that never mentions Quant train identically, and the byte-budgeted
// cache admits exactly floor(CacheBytes/RowBytes) fp32 rows.
func TestQuantOffMatchesSeedBehavior(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 512
	cfg.BotMLP = []int{13, 16, 16}
	cfg.TopMLP = []int{16, 1}
	const seed, iters, batch, nodes = 42, 4, 128, 2

	run := func(explicit bool) (*model.Model, shard.Stats) {
		sc := shard.Config{Nodes: nodes, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4}
		if explicit {
			sc.Quant = shard.QuantOff
		}
		svc := shard.New(sc, nil)
		tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
		tr.LearnSamples = 256
		gen := data.NewGenerator(cfg)
		for i := 0; i < iters; i++ {
			tr.Step(gen.NextBatch(batch))
		}
		return tr.M, svc.Snapshot()
	}
	ma, sa := run(false)
	mb, sb := run(true)
	if !model.DenseStateEqual(ma, mb) || !model.SparseStateEqual(ma, mb) {
		t.Fatal("explicit QuantOff diverged from the zero-value config")
	}
	// Wall clocks are the legitimately noisy fields.
	if sa, sb := sa.WithoutWall(), sb.WithoutWall(); sa != sb {
		t.Fatalf("stats diverged:\n%+v\n%+v", sa, sb)
	}
	if sa.QuantHits != 0 || sa.DequantRows != 0 {
		t.Fatalf("quant-off run counted quantized traffic: %+v", sa)
	}
}
