package train

import (
	"runtime"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

// TestClosedServiceIsCollectable is the regression test for the immortal
// service: the gather engine's recycled job buffers kept stale
// fetchJob entries (a job points at its window, a window at its engine, the
// engine at its service), the engine's runtime cleanup holds those
// queues as its argument, and svc.gather is the engine — so every service
// that ever prefetched stayed reachable from its own cleanup, with its
// sharded tables and push buffers (~3.6 MB per 4-node Kaggle instance).
// Build → train → Close rounds must leave the heap where round 1 left it
// and the goroutine count flat.
func TestClosedServiceIsCollectable(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.BotMLP = []int{13, 32, 16}
	cfg.TopMLP = []int{32, 1}
	round := func() {
		svc := shard.New(shard.Config{
			Nodes: 4, CacheBytes: 64 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
		}, nil)
		tr := NewHotlineSharded(model.New(cfg, 1), 0.1, svc)
		tr.LearnSamples = 512
		StepAll(tr, data.NewGenerator(cfg).NextBatches(7, 128), nil)
		if svc.Gatherer().Stats().Windows == 0 {
			t.Fatal("round issued no prefetch windows; the test is vacuous")
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's cleanups released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	round()
	heap1, goroutines1 := liveHeap(), runtime.NumGoroutine()
	const rounds = 6
	for i := 1; i < rounds; i++ {
		round()
	}
	// One leaked instance is ~3.6 MB; five would be ~18 MB.
	const margin = 4 << 20
	heap := liveHeap()
	// The last rounds' cleanups run on the runtime's own goroutine, which on
	// a busy box may not have finished between two collections (1-2% of runs
	// on 2 vCPUs); a real leak survives any number of cycles.
	for tries := 0; heap > heap1+margin && tries < 5; tries++ {
		heap = liveHeap()
	}
	if heap > heap1+margin {
		t.Fatalf("live heap grew from %.1f MB after round 1 to %.1f MB after round %d: closed services are still reachable",
			float64(heap1)/(1<<20), float64(heap)/(1<<20), rounds)
	}
	if g := runtime.NumGoroutine(); g > goroutines1 {
		t.Fatalf("goroutines grew from %d after round 1 to %d after round %d", goroutines1, g, rounds)
	}
}
