package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
)

func testCfg() data.Config {
	return data.Config{
		Name: "tiny-serve", RM: "T1",
		DenseFeatures: 4, NumTables: 3,
		FullRowsPerTable:   []int64{2000, 1000, 400},
		ScaledRowsPerTable: []int{200, 100, 40},
		LookupsPerTable:    1, ZipfS: 1.2, DriftPerDay: 0.1, HotFracRows: 0.3,
		EmbedDim: 8,
		BotMLP:   []int{4, 16, 8},
		TopMLP:   []int{16, 1},
		Samples:  2048, Seed: 77, ScaleFactor: 10, FullSizeGB: 0.001,
	}
}

func testSvc(cfg data.Config, nodes int) *shard.Service {
	return shard.New(shard.Config{
		Nodes: nodes, CacheBytes: 32 << 10, RowBytes: int64(cfg.EmbedDim) * 4,
	}, nil)
}

// TestServeDeterministic: predictions are a pure function of weights and
// request — identical across repeats (cache churn never touches values)
// and across physical layouts (single-node vs 4-way sharded).
func TestServeDeterministic(t *testing.T) {
	cfg := testCfg()
	c := BuildCorpus(cfg, 2, 4, 8)

	single := NewServer(model.New(cfg, 11), 2)
	mSharded := model.New(cfg, 11)
	mSharded.ShardEmbeddings(testSvc(cfg, 4))
	sharded := NewServer(mSharded, 2)

	for i, req := range c.Requests {
		a := single.Predict(req.Batch)
		b := append([]float32(nil), sharded.Predict(req.Batch)...)
		again := sharded.Predict(req.Batch)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("req %d sample %d: layouts diverge %g vs %g", i, k, a[k], b[k])
			}
			if b[k] != again[k] {
				t.Fatalf("req %d sample %d: repeat diverges %g vs %g", i, k, b[k], again[k])
			}
			if a[k] <= 0 || a[k] >= 1 {
				t.Fatalf("req %d sample %d: probability %g out of (0,1)", i, k, a[k])
			}
		}
	}
	if reqs, samples := sharded.Served(); reqs != int64(2*c.Len()) || samples != 2*c.Samples() {
		t.Fatalf("served counters: %d requests, %d samples", reqs, samples)
	}
}

// TestServeTrafficAccounting: request traffic lands in the service's serve
// counters only, never scatters, and writes no cache — a replay of the same
// requests counts exactly what the first pass counted.
func TestServeTrafficAccounting(t *testing.T) {
	cfg := testCfg()
	svc := testSvc(cfg, 4)
	m := model.New(cfg, 3)
	m.ShardEmbeddings(svc)
	s := NewServer(m, 1)
	c := BuildCorpus(cfg, 1, 4, 16)
	for _, req := range c.Requests {
		s.Predict(req.Batch)
	}
	sv := svc.ServeSnapshot()
	if sv.Lookups == 0 || sv.CacheMisses == 0 || sv.ScatterRows != 0 || sv.ScatterBytes != 0 {
		t.Fatalf("serve snapshot: %+v", sv)
	}
	if sv.FillBytes != 0 || sv.Evictions != 0 || svc.CacheEntries() != 0 {
		t.Fatalf("serve traffic wrote the caches: %+v, %d entries", sv, svc.CacheEntries())
	}
	if st := svc.Snapshot(); st != (shard.Stats{Nodes: 4}) {
		t.Fatalf("serve traffic leaked into training counters: %+v", st)
	}
	first := sv.WithoutWall()
	for _, req := range c.Requests {
		s.Predict(req.Batch)
	}
	if again := svc.ServeSnapshot().WithoutWall().Sub(first); again != first {
		t.Fatalf("a replay must count what the first pass did:\n got %+v\nwant %+v", again, first)
	}
}

// TestPanickingRequestReturnsItsReplica: an out-of-range index panics up
// front by design and a caller may recover it as a failed request. Such a
// request must hand back its replica and its read lock: after more of them
// than there are replicas, a good request and a training step still complete
// (a lost replica parks the next request for good; a read lock held by a
// parked request parks the trainer's update).
func TestPanickingRequestReturnsItsReplica(t *testing.T) {
	cfg := testCfg()
	m := model.New(cfg, 9)
	m.ShardEmbeddings(testSvc(cfg, 4))
	s := NewServer(m, 2)
	gen := data.NewGenerator(cfg)
	good, bad := gen.NextBatch(8), gen.NextBatch(8)
	bad.Sparse[0][0][0] = int32(cfg.ScaledRowsPerTable[0]) // one past the table
	want := m.Predict(good)

	var got []float32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= s.Replicas(); i++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("an out-of-range request did not panic")
					}
				}()
				s.Predict(bad)
			}()
		}
		got = s.Predict(good)
		s.Train(func() { m.TrainStep(good, 0.1) })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the server is wedged after recovered request panics")
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("sample %d: served %g, Model.Predict %g", i, got[i], want[i])
		}
	}
	if reqs, _ := s.Served(); reqs != 1 {
		t.Fatalf("served %d requests, want the one that did not panic", reqs)
	}
}

// TestLatencyPercentilesExact: nearest-rank percentiles of a shuffled
// 1..1000ms stream are exactly the 500th/900th/990th/999th values.
func TestLatencyPercentilesExact(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	rand.New(rand.NewSource(42)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	s := Summarize(samples)
	want := LatencySummary{
		N: 1000, Min: time.Millisecond, Max: time.Second,
		Mean: 500500 * time.Microsecond,
		P50:  500 * time.Millisecond, P90: 900 * time.Millisecond,
		P99: 990 * time.Millisecond, P999: 999 * time.Millisecond,
	}
	if s != want {
		t.Fatalf("summary = %+v want %+v", s, want)
	}

	// Single sample: every percentile is that sample.
	one := Summarize([]time.Duration{7 * time.Millisecond})
	if one.P50 != 7*time.Millisecond || one.P999 != 7*time.Millisecond || one.N != 1 {
		t.Fatalf("single-sample summary: %+v", one)
	}
	if z := Summarize(nil); z != (LatencySummary{}) {
		t.Fatalf("empty summary: %+v", z)
	}
}

// TestRunLoadLowQPS: the harness plays every request, measures positive
// latencies, and reports coherent throughput.
func TestRunLoadLowQPS(t *testing.T) {
	cfg := testCfg()
	m := model.New(cfg, 5)
	m.ShardEmbeddings(testSvc(cfg, 2))
	s := NewServer(m, 2)
	c := BuildCorpus(cfg, 2, 8, 4)

	rep := RunLoad(s, c, LoadConfig{QPS: 2000, Players: 2})
	if rep.Requests != c.Len() || rep.Latency.N != c.Len() {
		t.Fatalf("played %d/%d requests (latency N %d)", rep.Requests, c.Len(), rep.Latency.N)
	}
	if rep.Samples != c.Samples() {
		t.Fatalf("samples = %d want %d", rep.Samples, c.Samples())
	}
	if rep.Players != 2 || rep.QPS != 2000 {
		t.Fatalf("config echo: %+v", rep)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P999 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P999 {
		t.Fatalf("incoherent percentiles: %+v", rep.Latency)
	}
	if rep.Throughput <= 0 || rep.Wall <= 0 {
		t.Fatalf("throughput %g wall %v", rep.Throughput, rep.Wall)
	}
	if reqs, _ := s.Served(); reqs != int64(c.Len()) {
		t.Fatalf("server saw %d requests", reqs)
	}

	// A request cap above the corpus length wraps it.
	wrap := RunLoad(s, c, LoadConfig{QPS: 5000, Requests: c.Len() + 3, Players: 2})
	if wrap.Requests != c.Len()+3 {
		t.Fatalf("wrapped run played %d", wrap.Requests)
	}
}

// TestKnee: the knee is the last point inside the budget.
func TestKnee(t *testing.T) {
	mk := func(p99 time.Duration) SweepPoint {
		return SweepPoint{Report: LoadReport{Latency: LatencySummary{P99: p99}}}
	}
	pts := []SweepPoint{mk(time.Millisecond), mk(2 * time.Millisecond), mk(50 * time.Millisecond)}
	if k := Knee(pts, 5*time.Millisecond); k != 1 {
		t.Fatalf("knee = %d want 1", k)
	}
	if k := Knee(pts, time.Microsecond); k != -1 {
		t.Fatalf("knee = %d want -1", k)
	}
	if k := Knee(nil, time.Second); k != -1 {
		t.Fatalf("empty knee = %d", k)
	}
}

// TestCorpusDeterministic: same arguments, same corpus; days are stamped in
// order and drift actually changes the index stream across days.
func TestCorpusDeterministic(t *testing.T) {
	cfg := testCfg()
	a := BuildCorpus(cfg, 2, 3, 8)
	b := BuildCorpus(cfg, 2, 3, 8)
	if a.Len() != 6 || b.Len() != 6 || a.Days != 2 {
		t.Fatalf("corpus shape: %d/%d requests", a.Len(), b.Len())
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.Day != rb.Day || ra.Day != i/3 {
			t.Fatalf("request %d day %d vs %d", i, ra.Day, rb.Day)
		}
		for tab := range ra.Batch.Sparse {
			for s := range ra.Batch.Sparse[tab] {
				for k := range ra.Batch.Sparse[tab][s] {
					if ra.Batch.Sparse[tab][s][k] != rb.Batch.Sparse[tab][s][k] {
						t.Fatal("corpus not deterministic")
					}
				}
			}
		}
	}
}
