package train

import (
	"fmt"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

// buildOwnership realises one of the placements the determinism contract
// covers: nil (round-robin default) or a hot-aware layout counted over the
// test's own access stream.
func buildOwnership(t *testing.T, cfg data.Config, nodes, iters, batch int, hotAware bool) *shard.Ownership {
	t.Helper()
	if !hotAware {
		return nil
	}
	rc := shard.NewRequestCounter(nodes)
	gen := data.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		b := gen.NextBatch(batch)
		for tbl := range b.Sparse {
			rc.Observe(tbl, b.Sparse[tbl])
		}
	}
	return rc.HotAware(nil)
}

// updateRules is the optimizer axis of the pipelined determinism grids: the
// update rule every model of a cell trains under. Adagrad at depth >= 3 is
// dirty-row repair after an adaptive update; Adagrad under a quantized cache
// is warm-tier dequantisation under one.
var updateRules = []struct {
	name  string
	build func(*model.Model) model.Optimizer
}{
	{"sgd", model.NewSGD},
	{"adagrad", model.NewAdagrad},
}

// ruleGrid returns the node counts and pipeline depths a rule's cells run
// at: the full grid, except that -short samples Adagrad at nodes {2, 4} x
// k {1, 4}.
func ruleGrid(rule string) (nodes, depths []int) {
	if testing.Short() && rule != "sgd" {
		return []int{2, 4}, []int{1, 4}
	}
	return []int{1, 2, 4, 8}, []int{1, 2, 4, 8}
}

// TestOverlapDeterminism is the async-overlap determinism contract: training
// with the non-popular gather prefetched and overlapped with the popular
// µ-batch within the iteration (depth 2 stepped batch by batch) is
// byte-identical to fully synchronous sharded training (depth 1), for
// every node count and for both the round-robin and hot-aware placements.
// The -race harness runs this too, so the staging hand-off is also proven
// race-free.
func TestOverlapDeterminism(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	// The contract under test lives entirely in the embedding/shard layer;
	// tiny MLPs keep the 16-run matrix fast under -race without touching
	// the sparse access stream the EAL classifies.
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	// 4 batches feed the EAL's learning phase (LearnSamples below), the
	// rest classify with real popular/non-popular splits — the overlap path
	// only runs on split batches.
	const seed, iters, batch = 42, 8, 128

	for _, hotAware := range []bool{false, true} {
		for _, nodes := range []int{1, 2, 4, 8} {
			run := func(depth int) (*model.Model, shard.Stats) {
				svc := shard.New(shard.Config{
					Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
					Part: buildOwnership(t, cfg, nodes, iters, batch, hotAware),
				}, nil)
				tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
				tr.Depth = depth
				tr.LearnSamples = 512 // the EAL's minimum useful warm-up
				gen := data.NewGenerator(cfg)
				for i := 0; i < iters; i++ {
					tr.Step(gen.NextBatch(batch))
				}
				return tr.M, svc.Gatherer().Stats()
			}
			sync, syncStats := run(1)
			over, overStats := run(2)
			if !model.DenseStateEqual(sync, over) {
				t.Fatalf("nodes=%d hotAware=%v: dense state diverged", nodes, hotAware)
			}
			if !model.SparseStateEqual(sync, over) {
				t.Fatalf("nodes=%d hotAware=%v: sparse state diverged", nodes, hotAware)
			}
			if nodes > 1 {
				if overStats.Windows == 0 {
					t.Fatalf("nodes=%d hotAware=%v: overlap run issued no prefetch windows", nodes, hotAware)
				}
				if syncStats.Windows != 0 {
					t.Fatalf("nodes=%d hotAware=%v: sync run must not prefetch: %+v", nodes, hotAware, syncStats)
				}
				if syncStats.SyncGather <= 0 {
					t.Fatalf("nodes=%d hotAware=%v: sync run measured no gather time", nodes, hotAware)
				}
			}
		}
	}
}

// TestPipelinedOverlapDeterminism extends the determinism contract to the
// depth-k cross-iteration pipeline: training with StepLookahead — the next
// k-1 mini-batches classified and their non-popular fabric gathers issued
// while iteration i finishes, staged rows dirty-repaired after intervening
// sparse updates — is byte-identical to fully synchronous batch-by-batch
// sharded training, for every depth k in {1,2,4,8} x nodes {1,2,4,8} x
// both the round-robin and hot-aware placements x both update rules (the
// Adagrad half is sampled under -short, see ruleGrid). The -race harness
// runs this too, so the window-ring hand-off and the persistent drainers are
// also proven race-free.
func TestPipelinedOverlapDeterminism(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	const seed, iters, batch = 42, 8, 128
	batches := data.NewGenerator(cfg).NextBatches(iters, batch)

	for _, rule := range updateRules {
		nodesGrid, depths := ruleGrid(rule.name)
		for _, hotAware := range []bool{false, true} {
			for _, nodes := range nodesGrid {
				newTrainer := func(depth int) (*HotlineTrainer, *shard.Service) {
					svc := shard.New(shard.Config{
						Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
						Part: buildOwnership(t, cfg, nodes, iters, batch, hotAware),
					}, nil)
					tr := NewHotlineSharded(model.New(cfg, seed).SetOptimizer(rule.build), 0.1, svc)
					tr.Depth = depth
					tr.LearnSamples = 512
					return tr, svc
				}

				// Synchronous batch-by-batch reference.
				ref, _ := newTrainer(1)
				for i := 0; i < iters; i++ {
					ref.Step(batches[i])
				}

				for _, k := range depths {
					cell := fmt.Sprintf("%s k=%d nodes=%d hotAware=%v", rule.name, k, nodes, hotAware)
					tr, svc := newTrainer(k)
					StepAll(tr, batches, nil)
					st := svc.Gatherer().Stats()
					if !model.DenseStateEqual(ref.M, tr.M) {
						t.Fatalf("%s: pipelined dense state diverged", cell)
					}
					if !model.SparseStateEqual(ref.M, tr.M) {
						t.Fatalf("%s: pipelined sparse state diverged", cell)
					}
					if nodes > 1 && k > 1 && st.Windows == 0 {
						t.Fatalf("%s: pipelined run issued no prefetch windows", cell)
					}
					if k == 1 && st.Windows != 0 {
						t.Fatalf("%s: depth-1 pipeline must gather synchronously, issued %d windows", cell, st.Windows)
					}
					if st.StaleRows != 0 {
						t.Fatalf("%s: repair mode consumed %d stale rows", cell, st.StaleRows)
					}
					if k >= 4 && nodes > 1 && st.RepairRows == 0 {
						t.Fatalf("%s: no dirty row was repaired; the depth proves nothing about repair", cell)
					}
				}
			}
		}
	}
}

// TestDeepPipelineRepairAndStaleness pins down the queue-depth-vs-staleness
// tradeoff the depth-k pipeline exists to expose: at depth 8 the lookahead
// windows outlive several sparse updates, so (a) the repair-mode run ships
// dirty-row repairs (and stays bit-identical — covered by
// TestPipelinedOverlapDeterminism), and (b) the opt-in stale mode consumes
// stale rows and measurably diverges from exact training.
func TestDeepPipelineRepairAndStaleness(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	const seed, iters, batch, k = 42, 10, 128, 8

	run := func(stale bool) (*model.Model, shard.Stats) {
		svc := shard.New(shard.Config{
			Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		svc.SetStaleReads(stale)
		tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
		tr.Depth = k
		tr.LearnSamples = 512
		StepAll(tr, data.NewGenerator(cfg).NextBatches(iters, batch), nil)
		return tr.M, svc.Gatherer().Stats()
	}

	repairM, repairStats := run(false)
	staleM, staleStats := run(true)
	if repairStats.RepairRows == 0 || repairStats.RepairBytes == 0 {
		t.Fatalf("depth-%d pipeline must repair dirtied rows: %+v", k, repairStats)
	}
	if repairStats.StaleRows != 0 {
		t.Fatalf("repair mode consumed stale rows: %+v", repairStats)
	}
	if staleStats.StaleRows == 0 {
		t.Fatalf("stale mode must count its stale consumptions: %+v", staleStats)
	}
	if staleStats.RepairRows != 0 {
		t.Fatalf("stale mode must not repair: %+v", staleStats)
	}
	if model.DenseStateEqual(repairM, staleM) && model.SparseStateEqual(repairM, staleM) {
		t.Fatal("stale reads at depth 8 must diverge from exact training (that cost is what the mode measures)")
	}
}

// TestPipelinedSpeculationMiss drives StepLookahead with a lookahead batch
// that is NOT the one trained next: the stale prefetch windows must be
// joined and discarded (never consumed against moved weights), and training
// must keep matching a non-speculating executor fed the same EAL stream.
func TestPipelinedSpeculationMiss(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 1024
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	const seed, iters, batch = 42, 6, 128

	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
	tr.LearnSamples = 512
	gen := data.NewGenerator(cfg)
	decoyGen := data.NewGenerator(cfg)
	decoyGen.SetDay(1)
	var batches []*data.Batch
	for i := 0; i < iters; i++ {
		batches = append(batches, gen.NextBatch(batch))
	}

	// Reference: the same batches AND the same EAL learning stream,
	// including the decoy lookaheads (a lookahead commits its accelerator
	// learning even when the speculation misses).
	refSvc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	ref := NewHotlineSharded(model.New(cfg, seed), 0.1, refSvc)
	ref.LearnSamples = 512
	refDecoy := data.NewGenerator(cfg)
	refDecoy.SetDay(1)

	for i := 0; i < iters; i++ {
		// Speculate on a decoy batch that will never be trained.
		tr.StepLookahead(batches[i], []*data.Batch{decoyGen.NextBatch(batch)})

		ref.Step(batches[i])
		ref.learn(refDecoy.NextBatch(batch)) // mirror the decoy's EAL feed
	}
	if !model.DenseStateEqual(tr.M, ref.M) || !model.SparseStateEqual(tr.M, ref.M) {
		t.Fatal("speculation misses must not change training state")
	}
}

// TestOverlapMatchesUnshardedExecutor closes the loop to the original
// executor parity: overlapped sharded training equals the plain unsharded
// Hotline trainer bit for bit.
func TestOverlapMatchesUnshardedExecutor(t *testing.T) {
	cfg := shardedCfg()
	const seed, iters, batch = 7, 3, 48

	ref := NewHotline(model.New(cfg, seed), 0.1)
	refGen := data.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		ref.Step(refGen.NextBatch(batch))
	}

	svc := shard.New(shard.Config{
		Nodes: 4, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
	tr := NewHotlineSharded(model.New(cfg, seed), 0.1, svc)
	gen := data.NewGenerator(cfg)
	for i := 0; i < iters; i++ {
		tr.Step(gen.NextBatch(batch))
	}
	if !model.DenseStateEqual(ref.M, tr.M) || !model.SparseStateEqual(ref.M, tr.M) {
		t.Fatal("overlapped sharded training must match the unsharded executor")
	}
}
