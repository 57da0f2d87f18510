package shard

import (
	"math"
	"sort"
	"testing"

	"hotline/internal/tensor"
)

// One table of the benchmark's sparse-inproc workload, as the accounting
// walks see it: 256 bags x 8 lookups, Zipf 1.6 over 24 000 rows, 4 nodes, a
// cache that holds every row. go test -run '^$' -bench
// 'BenchmarkPlanGather|BenchmarkRecordScatter|BenchmarkDeviceCacheLookup'
// -cpu 1 ./internal/shard/
const (
	sparseRows    = 24000
	sparseDim     = 64
	sparseBags    = 256
	sparseLookups = 8
	sparseNodes   = 4
	sparseZipf    = 1.6
	sparseBatches = 16 // distinct index sets, cycled
)

// zipfBatches draws sparseBatches index sets whose rows follow a Zipf law
// over ranks, with ranks spread over the row range by a fixed permutation.
func zipfBatches(seed uint64) [][][]int32 {
	cdf := make([]float64, sparseRows)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), sparseZipf)
		cdf[r] = sum
	}
	rng := tensor.NewRNG(seed)
	out := make([][][]int32, sparseBatches)
	for i := range out {
		out[i] = make([][]int32, sparseBags)
		for b := range out[i] {
			bag := make([]int32, sparseLookups)
			for j := range bag {
				rank := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), sparseRows-1)
				bag[j] = int32(rank * 7919 % sparseRows) // 7919 is coprime to 24000
			}
			out[i][b] = bag
		}
	}
	return out
}

// sparseService registers the table and runs every batch once, so the caches
// hold their steady state.
func sparseService(b *testing.B, batches [][][]int32) *Service {
	b.Helper()
	s := New(Config{Nodes: sparseNodes, CacheBytes: sparseRows * sparseDim * 4, RowBytes: sparseDim * 4}, nil)
	b.Cleanup(func() { s.Close() })
	s.RegisterTable(0, sparseRows, flatRows(sparseRows, sparseDim))
	for _, idx := range batches {
		s.RecordGather(0, idx)
	}
	return s
}

// BenchmarkPlanGather times the gather accounting walk (routing, cache
// probes, dedup); in steady state every remote row hits, so no plan is built.
func BenchmarkPlanGather(b *testing.B) {
	batches := zipfBatches(3)
	s := sparseService(b, batches)
	i := 0
	for b.Loop() {
		if plan := s.PlanGather(0, batches[i%sparseBatches]); plan != nil {
			b.Fatalf("steady-state plan has %d rows", plan.Rows())
		}
		i++
	}
}

// BenchmarkRecordScatter times the scatter accounting walk (routing, dedup).
func BenchmarkRecordScatter(b *testing.B) {
	batches := zipfBatches(3)
	s := sparseService(b, batches)
	i := 0
	for b.Loop() {
		s.RecordScatter(0, batches[i%sparseBatches])
		i++
	}
}

// BenchmarkDeviceCacheLookup times one step's worth of hit probes (2 048)
// against one node's full LRU cache.
func BenchmarkDeviceCacheLookup(b *testing.B) {
	batches := zipfBatches(3)
	c := NewDeviceCache(sparseRows*sparseDim*4, PolicyLRU)
	c.SizeTable(0, sparseRows)
	for r := int32(0); r < sparseRows; r++ {
		c.Insert(key(0, r), WidthFP32, sparseDim*4)
	}
	i := 0
	for b.Loop() {
		for _, bag := range batches[i%sparseBatches] {
			for _, ix := range bag {
				c.Lookup(key(0, ix))
			}
		}
		i++
	}
}
