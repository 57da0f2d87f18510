package embedding

import (
	"math"
	"sort"
	"testing"

	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// The bag shapes the repository benchmark's workloads run, one table each, at
// batch 256 on 4 in-proc nodes with a cache that holds every row, plus a long
// bag. go test -run '^$' -bench BenchmarkBag -cpu 1 ./internal/embedding/
const (
	benchBags    = 256
	benchNodes   = 4
	benchBatches = 16 // distinct index sets, cycled
)

// bagShape is one sub-benchmark: lookups rows per bag of width dim, drawn by
// a Zipf law of exponent zipf over rows rows.
type bagShape struct {
	name               string
	lookups, dim, rows int
	zipf               float64
}

var bagShapes = []bagShape{
	// Kaggle (dense-local, serve-mixed): one-hot bags, below kernelWork (16 of
	// 32 elements), so pooling and the adjoint stay on the Go loops.
	{"1x16", 1, 16, 24000, 1.6},
	// SYN-MH as sparse-inproc runs it: the kernel's own shape.
	{"8x64", 8, 64, 24000, 1.6},
	// A long bag: a full block of rows per kernel call.
	{"32x64", 32, 64, 24000, 1.6},
	flatShape,
}

// flatShape is SYN-MH under fabric-unix's access law, over as many rows as
// its eight tables hold together (19 MB, beyond L2): the rows mostly miss.
var flatShape = bagShape{"8x64-flat", 8, 64, 75000, 1.05}

// zipfBatches draws benchBatches index sets whose rows follow the shape's
// Zipf law over ranks, with ranks spread over the row range by a fixed
// permutation (so hot rows are not neighbours, as in the generated data).
func zipfBatches(seed uint64, sh bagShape) [][][]int32 {
	cdf := make([]float64, sh.rows)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), sh.zipf)
		cdf[r] = sum
	}
	rng := tensor.NewRNG(seed)
	out := make([][][]int32, benchBatches)
	for i := range out {
		out[i] = make([][]int32, benchBags)
		for b := range out[i] {
			bag := make([]int32, sh.lookups)
			for j := range bag {
				rank := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), sh.rows-1)
				bag[j] = int32(rank * 7919 % sh.rows) // 7919 is coprime to every row count here
			}
			out[i][b] = bag
		}
	}
	return out
}

// benchBag shards one table over the workload's service, with every batch
// run once so the caches hold their steady state.
func benchBag(b *testing.B, sh bagShape, batches [][][]int32) *ShardedBag {
	b.Helper()
	svc := shard.New(shard.Config{
		Nodes: benchNodes, CacheBytes: int64(sh.rows) * int64(sh.dim) * 4, RowBytes: int64(sh.dim) * 4,
	}, nil)
	b.Cleanup(func() { svc.Close() })
	sb := ShardBag(NewTable(sh.rows, sh.dim, tensor.NewRNG(1)), svc, 0)
	for _, idx := range batches {
		sb.Forward(idx)
	}
	return sb
}

func benchGrad(dim int) *tensor.Matrix {
	g := tensor.New(benchBags, dim)
	rng := tensor.NewRNG(2)
	for i := range g.Data {
		g.Data[i] = float32(rng.NormFloat64())
	}
	return g
}

// forShapes runs one sub-benchmark per bag shape, at one worker.
func forShapes(b *testing.B, run func(b *testing.B, sh bagShape, batches [][][]int32)) {
	defer par.SetWorkers(par.SetWorkers(1))
	for _, sh := range bagShapes {
		b.Run(sh.name, func(b *testing.B) { run(b, sh, zipfBatches(3, sh)) })
	}
}

// BenchmarkBagForward times ShardedBag.Forward: the accounting walk plus the
// pooled reduce.
func BenchmarkBagForward(b *testing.B) {
	forShapes(b, func(b *testing.B, sh bagShape, batches [][][]int32) {
		sb := benchBag(b, sh, batches)
		i := 0
		for b.Loop() {
			sb.Forward(batches[i%benchBatches])
			i++
		}
	})
}

// BenchmarkBagBackward times ShardedBag.BackwardIndices (scatter accounting,
// pair ordering, adjoint reduce), then its two kernels on their own.
func BenchmarkBagBackward(b *testing.B) {
	forShapes(b, func(b *testing.B, sh bagShape, batches [][][]int32) {
		grad := benchGrad(sh.dim)
		b.Run("whole", func(b *testing.B) {
			sb := benchBag(b, sh, batches)
			i := 0
			for b.Loop() {
				sb.BackwardIndices(batches[i%benchBatches], grad)
				sb.ResetStepScratch()
				i++
			}
		})
		b.Run("order", func(b *testing.B) {
			var a backwardArena
			i := 0
			for b.Loop() {
				a.pairsByRow(batches[i%benchBatches])
				i++
			}
		})
		b.Run("reduce", func(b *testing.B) {
			var a backwardArena
			sg := bagBackward(&a, batches[0], grad, sh.dim)
			for b.Loop() {
				sg.Grad.Resize(len(sg.Rows), sh.dim)
				bagBackwardRange(sg.Grad, grad, a.pairs, a.starts, 0, len(sg.Rows))
			}
		})
	})
}

// BenchmarkBagApplySGD times the sparse update over one step's merged unique
// rows.
func BenchmarkBagApplySGD(b *testing.B) {
	forShapes(b, func(b *testing.B, sh bagShape, batches [][][]int32) {
		sb := benchBag(b, sh, batches)
		sg := sb.BackwardIndices(batches[0], benchGrad(sh.dim))
		for b.Loop() {
			sb.ApplySparseSGD(sg, 1e-6)
		}
	})
}

// BenchmarkPrefetchWindow measures one asynchronous gather window end to end
// (plan → double-buffered queues → staging → consume → ring release) on a
// small 4-node service. "fp32" keeps full-width rows in an 8-row cache;
// "int8" and "fp16" hold every remote row warm-tier resident at that width,
// so each window stages entirely through the fused dequantize-gather kernel.
// All three run the same index set, so a narrow width minus fp32 isolates
// the quantization kernel. "int8-8x64-flat" is the warm-tier fill at
// fabric-unix's shape: flatShape's 256 8-hot bags over 75 000 rows of dim 64
// on 4 nodes, every remote row int8 — about a thousand rows a window, read
// from a table beyond L2 — cycling through benchBatches index sets.
func BenchmarkPrefetchWindow(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	const dim, rows = 16, 256
	idx := make([][]int32, 32)
	for i := range idx {
		idx[i] = []int32{int32(i * 7 % rows), int32(i * 13 % rows), int32(i % 7)}
	}
	for _, c := range []struct {
		name      string
		cacheRows int64
		quant     shard.QuantMode
	}{{"fp32", 8, shard.QuantOff}, {"int8", rows, shard.QuantINT8}, {"fp16", rows, shard.QuantFP16}} {
		b.Run(c.name, func(b *testing.B) {
			svc := shard.New(shard.Config{
				Nodes: 4, CacheBytes: c.cacheRows * dim * 4, RowBytes: dim * 4,
				Quant: c.quant,
			}, nil)
			b.Cleanup(func() { svc.Close() })
			sb := ShardBag(NewTable(rows, dim, tensor.NewRNG(3)), svc, 0)
			sb.Prefetch(idx) // warm: admit the remote rows at the cache's width
			sb.Forward(idx)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.Prefetch(idx)
				sb.Forward(idx)
			}
		})
	}
	b.Run("int8-"+flatShape.name, func(b *testing.B) {
		sh, batches := flatShape, zipfBatches(3, flatShape)
		svc := shard.New(shard.Config{
			Nodes: benchNodes, CacheBytes: int64(sh.rows) * int64(sh.dim) * 4, RowBytes: int64(sh.dim) * 4,
			Quant: shard.QuantINT8,
		}, nil)
		b.Cleanup(func() { svc.Close() })
		sb := ShardBag(NewTable(sh.rows, sh.dim, tensor.NewRNG(3)), svc, 0)
		for _, idx := range batches {
			sb.Forward(idx) // warm: admit every remote row at int8
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			idx := batches[i%benchBatches]
			sb.Prefetch(idx)
			sb.Forward(idx)
			i++
		}
	})
}
