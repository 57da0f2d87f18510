package accel

import (
	"testing"

	"hotline/internal/data"
)

// BenchmarkEALTouch measures the Embedding Access Logger's learning-phase
// throughput (the accelerator's innermost loop).
func BenchmarkEALTouch(b *testing.B) {
	eal := NewEAL(EALConfig{SizeBytes: 1 << 20, Banks: 64, Ways: 8, BytesPerEntry: 2, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eal.Touch(i%26, int32(i%100000))
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
