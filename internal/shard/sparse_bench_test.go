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

// hotBitmap is a bitmap-backed HotClassifier over table 0, laid out as
// embedding.Placement keeps its hot set: bit r&63 of word r>>6 marks row r.
type hotBitmap []uint64

func (h hotBitmap) IsHot(table int, row int32) bool {
	w := int(row >> 6)
	return table == 0 && w < len(h) && h[w]&(1<<(row&63)) != 0
}

func (h hotBitmap) HotBits(table int) []uint64 {
	if table != 0 {
		return nil
	}
	return h
}

// BenchmarkPlanGatherEvicting times the gather accounting walk under
// eviction, at the fabric-unix workload's skew and cache share: Zipf 1.05
// over the same table, and each node's cache 1/16 of the scaled hot budget
// (a fifth of the rows, data.ScaledHotBudget), so most remote misses admit a
// row and evict others, and every call builds a plan (released unfilled).
// QuantOff admits every remote row (no classifier). QuantMixed asks a
// bitmap-backed classifier whose hot set, the most popular rows, fills half
// the budget at fp32 (as fabric-unix learns it) and admits every other row
// into the int8 warm tier.
func BenchmarkPlanGatherEvicting(b *testing.B) {
	const cacheBytes = sparseRows / 5 / 16 * sparseDim * 4
	for _, mode := range []struct {
		name string
		q    QuantMode
	}{{"QuantOff", QuantOff}, {"QuantMixed", QuantMixed}} {
		b.Run(mode.name, func(b *testing.B) {
			batches := zipfBatches(5, 1.05)
			var hot HotClassifier
			if mode.q == QuantMixed {
				h := make(hotBitmap, (sparseRows+63)/64)
				for rank := range cacheBytes / 2 / (sparseDim * 4) {
					r := rankRow(rank)
					h[r>>6] |= 1 << (r & 63)
				}
				hot = h
			}
			s := New(Config{Nodes: sparseNodes, CacheBytes: cacheBytes, RowBytes: sparseDim * 4, Quant: mode.q}, hot)
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
			i := 0
			for b.Loop() {
				s.PlanGather(0, batches[i%sparseBatches]).Release()
				i++
			}
		})
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

// BenchmarkDeviceCacheLookup times one step's worth of hit probes (2 048)
// against one node's full LRU cache.
func BenchmarkDeviceCacheLookup(b *testing.B) {
	batches := zipfBatches(3, sparseZipf)
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
