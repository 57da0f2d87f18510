package train

import (
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
)

// BenchmarkHotlineTrainStep measures one functional Hotline training step
// (segregate + two µ-batch passes + update) on the scaled Kaggle model,
// unsharded, batch 64, one worker. "step" calls Step on one batch; "depth2"
// and "depth4" time b.N steps over a cycled window of batches through
// StepAll, so every step is handed Depth-1 batches ahead (the lookahead
// classification staged every step). The steady state allocates nothing
// (alloc_test.go asserts it); the allocs/op column also averages the first
// steps' buffer growth, which a long -benchtime amortises to 0.
func BenchmarkHotlineTrainStep(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	cfg := allocCfg()
	b.Run("step", func(b *testing.B) {
		tr := NewHotline(model.New(cfg, 1), 0.1)
		batch := data.NewGenerator(cfg).NextBatch(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Step(batch)
		}
	})
	for _, c := range []struct {
		name          string
		depth, window int
	}{{"depth2", 2, 2}, {"depth4", 4, 8}} {
		b.Run(c.name, func(b *testing.B) {
			tr := NewHotline(model.New(cfg, 1), 0.1)
			tr.Depth = c.depth
			batches := data.NewGenerator(cfg).NextBatches(c.window, 64)
			stream := make([]*data.Batch, b.N)
			for i := range stream {
				stream[i] = batches[i%c.window]
			}
			b.ReportAllocs()
			b.ResetTimer()
			StepAll(tr, stream, nil)
		})
	}
}
