package accel

import (
	"testing"

	"hotline/internal/data"
)

// BenchmarkEALTouch measures the Embedding Access Logger's learning-phase
// throughput (the accelerator's innermost loop) at both lane widths:
// Table IV's 4 MB, whose identifiers fit 16 bits, and a 1 MB EAL, whose
// identifiers need the high lanes too.
func BenchmarkEALTouch(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  EALConfig
	}{
		{"table-iv", DefaultEALConfig()},
		{"1MB", EALConfig{SizeBytes: 1 << 20, Banks: 64, Ways: 8, Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			eal := NewEAL(c.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eal.Touch(i%26, int32(i%100000))
			}
		})
	}
}

// BenchmarkEALClassify measures acceleration-phase classification of a 4K
// Criteo Kaggle mini-batch (steady state: 0 allocs/op).
func BenchmarkEALClassify(b *testing.B) {
	cfg := data.CriteoKaggle()
	acc := New(DefaultConfig())
	gen := data.NewGenerator(cfg)
	for i := 0; i < 2; i++ {
		acc.LearnBatch(gen.NextBatch(1024))
	}
	batch := gen.NextBatch(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Classify(batch)
	}
}
