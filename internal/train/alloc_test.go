package train

import (
	"fmt"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
	"hotline/internal/shard"
)

// allocCfg is the benchmark model shape: real Criteo Kaggle sparse stream
// over small MLPs, so the test exercises every executor path quickly.
func allocCfg() data.Config {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 64, 16}
	cfg.TopMLP = []int{64, 1}
	return cfg
}

// TestHotlineStepZeroAllocSteadyState is the tentpole's contract: after
// warm-up, one Hotline training step — classification, both µ-batch
// passes, gradient reduction, dense SGD and the sparse update — performs
// ZERO allocations at Parallelism(1). (Parallel runs pay goroutine fan-out;
// that is the forking cost, not the step's.)
func TestHotlineStepZeroAllocSteadyState(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	tr := NewHotline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	b := gen.NextBatch(64)
	// Warm past the learning phase, buffer growth AND the backward-arena
	// slot cap (256): the shadow model's arenas are rewound by ZeroAll, not
	// by the sparse update, so a long run must stay slot-bounded too.
	for i := 0; i < 300; i++ {
		tr.Step(b)
	}
	if n := testing.AllocsPerRun(30, func() { tr.Step(b) }); n > 0 {
		t.Fatalf("Hotline Step allocated %.1f times per step, want 0", n)
	}
}

// TestHotlineStepLookaheadZeroAllocSteadyState repeats the contract with one
// batch ahead (lookahead classification staged every step).
func TestHotlineStepLookaheadZeroAllocSteadyState(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	tr := NewHotline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	b := gen.NextBatch(64)
	ahead := []*data.Batch{gen.NextBatch(64)}
	step := func() {
		tr.StepLookahead(b, ahead)
		b, ahead[0] = ahead[0], b
	}
	for i := 0; i < 30; i++ {
		step()
	}
	if n := testing.AllocsPerRun(30, step); n > 0 {
		t.Fatalf("pipelined Step allocated %.1f times per step, want 0", n)
	}
}

// TestShardedPipelinedZeroAllocDepths is the depth-k gate: with the
// persistent per-queue drainer goroutines and the prefetch/window rings in
// place, the SHARDED pipelined step — classification, both µ-batch passes,
// async gather windows, dirty-row marking and delta repair, dense + sparse
// update — performs ZERO steady-state allocations at Parallelism(1) for
// every pipeline depth k in {2, 4, 8}.
func TestShardedPipelinedZeroAllocDepths(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			svc := shard.New(shard.Config{
				Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
			}, nil)
			tr := NewHotlineSharded(model.New(cfg, 1), 0.1, svc)
			tr.Depth = k
			gen := data.NewGenerator(cfg)
			const window = 16
			batches := make([]*data.Batch, window)
			for i := range batches {
				batches[i] = gen.NextBatch(64)
			}
			look := make([]*data.Batch, k-1)
			i := 0
			step := func() {
				for j := range look {
					look[j] = batches[(i+1+j)%window]
				}
				tr.StepLookahead(batches[i%window], look)
				i++
			}
			// Warm past the learning phase, ring growth, arena slot caps
			// and the dirty-list high-water marks.
			for n := 0; n < 300; n++ {
				step()
			}
			if n := testing.AllocsPerRun(30, step); n > 0 {
				t.Fatalf("depth-%d sharded pipelined step allocated %.1f times per step, want 0", k, n)
			}
		})
	}
}

// TestQuantizedPipelinedZeroAllocDepths extends the depth-k zero-alloc gate
// to the precision-tiered caches: with warm rows stored narrow and every
// warm-tier access served through the fused dequantize-gather kernel (plus
// its delta-repair path at consume time), the sharded pipelined step must
// still perform ZERO steady-state allocations at Parallelism(1) for every
// depth k in {1, 2, 4, 8} — the fused kernel writes straight into the pooled
// staging slots, never through a fresh buffer.
func TestQuantizedPipelinedZeroAllocDepths(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	for _, q := range []shard.QuantMode{shard.QuantINT8, shard.QuantMixed} {
		for _, k := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", q, k), func(t *testing.T) {
				if testing.Short() && q == shard.QuantINT8 {
					t.Skip("the mixed sweep covers the fused kernel and both tiers; run without -short for the uniform mode")
				}
				svc := shard.New(shard.Config{
					Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
					Quant: q,
				}, modHot{})
				tr := NewHotlineSharded(model.New(cfg, 1), 0.1, svc)
				tr.Depth = k
				gen := data.NewGenerator(cfg)
				const window = 16
				batches := make([]*data.Batch, window)
				for i := range batches {
					batches[i] = gen.NextBatch(64)
				}
				look := make([]*data.Batch, k-1)
				i := 0
				step := func() {
					for j := range look {
						look[j] = batches[(i+1+j)%window]
					}
					tr.StepLookahead(batches[i%window], look)
					i++
				}
				for n := 0; n < 300; n++ {
					step()
				}
				if st := svc.Snapshot(); st.DequantRows == 0 {
					t.Fatal("warm-up never ran the fused dequantize-gather; the gate is vacuous")
				}
				if n := testing.AllocsPerRun(30, step); n > 0 {
					t.Fatalf("%s depth-%d quantized pipelined step allocated %.1f times per step, want 0", q, k, n)
				}
			})
		}
	}
}

// TestBaselineStepZeroAllocSteadyState: the baseline executor's step is
// also allocation-free (forward, loss, backward, SGD, sparse update).
func TestBaselineStepZeroAllocSteadyState(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	tr := NewBaseline(model.New(cfg, 1), 0.1)
	gen := data.NewGenerator(cfg)
	b := gen.NextBatch(64)
	for i := 0; i < 5; i++ {
		tr.Step(b)
	}
	if n := testing.AllocsPerRun(30, func() { tr.Step(b) }); n > 0 {
		t.Fatalf("baseline Step allocated %.1f times per step, want 0", n)
	}
}

// TestAdagradStepSteadyStateAllocs: the Adagrad executors reuse the merge
// workspace; the merged-update path stays allocation-free too.
func TestAdagradStepSteadyStateAllocs(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	tr := NewHotline(model.New(cfg, 1).SetOptimizer(model.NewAdagrad), 0.1)
	gen := data.NewGenerator(cfg)
	b := gen.NextBatch(64)
	for i := 0; i < 30; i++ {
		tr.Step(b)
	}
	if n := testing.AllocsPerRun(30, func() { tr.Step(b) }); n > 0 {
		t.Fatalf("Adagrad Step allocated %.1f times per step, want 0", n)
	}
}
