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
// 'BenchmarkPlanGather|BenchmarkServeGather|BenchmarkRecordScatter'
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

// zipfBatches draws sparseBatches index sets whose rows follow a Zipf law of
// exponent zipf over ranks, with ranks spread over the row range by a fixed
// permutation (rankRow).
func zipfBatches(seed uint64, zipf float64) [][][]int32 {
	cdf := make([]float64, sparseRows)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipf)
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
				bag[j] = rankRow(rank)
			}
			out[i][b] = bag
		}
	}
	return out
}

// rankRow is the row that holds Zipf rank rank (7919 is coprime to 24 000).
func rankRow(rank int) int32 { return int32(rank * 7919 % sparseRows) }

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
	batches := zipfBatches(3, sparseZipf)
	s := sparseService(b, batches)
	i := 0
	for b.Loop() {
		if plan := s.PlanGather(0, batches[i%sparseBatches]); plan != nil {
			b.Fatalf("steady-state plan has %d rows", plan.Rows())
		}
		i++
	}
}

// BenchmarkPlanGatherEvicting times the gather accounting walk under
// eviction, at the fabric-unix workload's skew and cache share (see
// evictingService): most remote misses admit a row and evict others, and
// every call builds a plan (released unfilled).
func BenchmarkPlanGatherEvicting(b *testing.B) {
	for _, mode := range []struct {
		name string
		q    QuantMode
	}{{"QuantOff", QuantOff}, {"QuantMixed", QuantMixed}} {
		b.Run(mode.name, func(b *testing.B) {
			s, batches := evictingService(b, mode.q)
			i := 0
			for b.Loop() {
				s.PlanGather(0, batches[i%sparseBatches]).Release()
				i++
			}
		})
	}
}

// evictingService is a service at the fabric-unix workload's skew and cache
// share: Zipf 1.05 over the sparse table, and each node's cache 1/16 of the
// scaled hot budget (a fifth of the rows, data.ScaledHotBudget), warmed by
// four training passes over the batches it returns. QuantOff admits every
// remote row (no classifier). QuantMixed asks a bitmap-backed classifier
// whose hot set, the most popular rows, fills half the budget at fp32 (as
// fabric-unix learns it) and admits every other row into the int8 warm tier.
func evictingService(b *testing.B, q QuantMode) (*Service, [][][]int32) {
	b.Helper()
	const cacheBytes = sparseRows / 5 / 16 * sparseDim * 4
	batches := zipfBatches(5, 1.05)
	var hot HotClassifier
	if q == QuantMixed {
		h := make(hotBitmap, (sparseRows+63)/64)
		for rank := range cacheBytes / 2 / (sparseDim * 4) {
			r := rankRow(rank)
			h[r>>6] |= 1 << (r & 63)
		}
		hot = h
	}
	s := New(Config{Nodes: sparseNodes, CacheBytes: cacheBytes, RowBytes: sparseDim * 4, Quant: q}, hot)
	b.Cleanup(func() { s.Close() })
	s.RegisterTable(0, sparseRows, flatRows(sparseRows, sparseDim))
	for range 4 {
		for _, idx := range batches {
			s.PlanGather(0, idx).Release()
		}
	}
	if s.Snapshot().Evictions == 0 {
		b.Fatal("the warm-up never evicted")
	}
	return s, batches
}

// BenchmarkServeGather times the serve walk, a read of the caches training
// warmed: RecordServeGather at the sparse-inproc shape, where every remote
// row hits, and PlanServeGather at BenchmarkPlanGatherEvicting/QuantMixed's
// shape, the fabric-unix serve read, whose misses are staged (released
// unfilled) and admitted nowhere. Each fails when its walk wrote a cache.
func BenchmarkServeGather(b *testing.B) {
	b.Run("RecordServeGather", func(b *testing.B) {
		batches := zipfBatches(3, sparseZipf)
		s := sparseService(b, batches)
		i := 0
		for b.Loop() {
			s.RecordServeGather(0, batches[i%sparseBatches])
			i++
		}
		if sv := s.ServeSnapshot(); sv.CacheMisses != 0 {
			b.Fatalf("steady-state serve walk missed %d rows", sv.CacheMisses)
		}
		servedReadOnly(b, s)
	})
	b.Run("PlanServeGather", func(b *testing.B) {
		s, batches := evictingService(b, QuantMixed)
		i := 0
		for b.Loop() {
			s.PlanServeGather(0, batches[i%sparseBatches]).Release()
			i++
		}
		servedReadOnly(b, s)
	})
}

// servedReadOnly fails b when the serve walks on s admitted or evicted a row.
func servedReadOnly(b *testing.B, s *Service) {
	b.Helper()
	if sv := s.ServeSnapshot(); sv.FillBytes != 0 || sv.Evictions != 0 {
		b.Fatalf("the serve walk wrote the caches: fill %d bytes, %d evictions", sv.FillBytes, sv.Evictions)
	}
}

// BenchmarkRecordScatter times the scatter accounting walk (routing, dedup).
func BenchmarkRecordScatter(b *testing.B) {
	batches := zipfBatches(3, sparseZipf)
	s := sparseService(b, batches)
	i := 0
	for b.Loop() {
		s.RecordScatter(0, batches[i%sparseBatches])
		i++
	}
}
