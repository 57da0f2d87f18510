// Package conformance is the cross-transport invariant suite of the shard
// fabric: one table of contracts — training bit-parity against the
// single-node reference, exact traffic-counter equality with the in-proc
// fast path, depth-k window/repair determinism, serve/train counter
// separation, and clean shutdown with in-flight windows — executed
// identically against every registered Transport implementation, plus
// fault-injection variants (faults.go) asserting typed errors and no
// deadlock when a socket fabric misbehaves.
//
// A new Transport earns its place by passing Run; a socket-family transport
// additionally passes RunFaults. The suite is a library so external
// transport implementations can run it from their own tests.
package conformance

import (
	"fmt"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/train"
)

// Suite describes one transport family under test.
type Suite struct {
	// Name labels the subtests ("inproc", "unix", "tcp").
	Name string
	// NewTransport returns a fresh transport (backed by a fresh fabric) for
	// one run at the given node count. Implementations register teardown on
	// tb. A nil func (or nil return) selects the service's default in-proc
	// fast path.
	NewTransport func(tb testing.TB, nodes int) shard.Transport
}

// probeCfg is the functional probe every invariant trains: the real Criteo
// access stream shape, down-sampled, with shrunken MLPs — the fabric
// traffic is untouched, the arithmetic is cheap.
func probeCfg() data.Config {
	cfg := data.CriteoKaggle()
	// The stream must outlast the probe (probeIters × probeBatch) — a
	// cycled generator replays already-learned samples, every input
	// classifies popular, and the popular/non-popular split degenerates.
	cfg.Samples = 2048
	cfg.BotMLP = []int{cfg.BotMLP[0], 32, cfg.EmbedDim}
	cfg.TopMLP = []int{32, 1}
	return cfg
}

const (
	probeSeed  = 42
	probeIters = 4
	// probeBatch must be large enough that post-learning batches mix
	// popular and non-popular inputs (an input is popular iff ALL its
	// indices are EAL-tracked, so small batches classify all-or-nothing
	// and the prefetch pipeline would never engage).
	probeBatch = 256
	// probeLearn ends the EAL learning phase after the first batch so the
	// prefetch pipeline actually engages within the probe's short stream.
	// Both sides of every parity comparison share it (segregation order is
	// part of the executor's identity).
	probeLearn = probeBatch
)

// probeBatches replays the probe's deterministic stream.
func probeBatches(cfg data.Config) []*data.Batch {
	return data.NewGenerator(cfg).NextBatches(probeIters, probeBatch)
}

// runResult is one sharded training run's evidence.
type runResult struct {
	losses []float64
	m      *model.Model
	stats  shard.Stats
}

// trainRun runs the pipelined Hotline executor for m on the probe's fixed
// stream over a sharded service with the given node count, depth and
// placement. attach plugs the transport (and any recovery policy) into the
// fresh service; before, when non-nil, runs ahead of every training window.
func trainRun(tb testing.TB, m *model.Model, nodes, depth int, part *shard.Ownership,
	attach func(*shard.Service), before func(i int)) runResult {
	tb.Helper()
	svc := shard.New(shard.Config{
		Nodes: nodes, CacheBytes: 64 << 10, RowBytes: int64(m.Cfg.EmbedDim) * 4,
		Part: part,
	}, nil)
	attach(svc)
	defer func() {
		if err := svc.Close(); err != nil {
			tb.Fatalf("service close: %v", err)
		}
	}()
	t := train.NewHotlineSharded(m, 0.1, svc)
	t.Depth = depth
	t.LearnSamples = probeLearn
	svc.ResetStats()
	res := runResult{m: t.M, losses: train.StepAll(t, probeBatches(m.Cfg), before)}
	res.stats = svc.Snapshot()
	if err := svc.FabricErr(); err != nil {
		tb.Fatalf("fabric error after run (nodes=%d depth=%d): %v", nodes, depth, err)
	}
	return res
}

// attach plugs a fresh transport of the suite's family into svc.
func (s Suite) attach(tb testing.TB, svc *shard.Service, nodes int) {
	if s.NewTransport != nil {
		if tr := s.NewTransport(tb, nodes); tr != nil {
			svc.SetTransport(tr)
		}
	}
}

// trainOver is trainRun over the suite's transport.
func trainOver(tb testing.TB, s Suite, m *model.Model, nodes, depth int, part *shard.Ownership) runResult {
	tb.Helper()
	return trainRun(tb, m, nodes, depth, part, func(svc *shard.Service) { s.attach(tb, svc, nodes) }, nil)
}

// reference trains the unsharded executor for m on the probe's stream: the
// single-node run every cell under m's rule must reproduce — parameters
// bit-for-bit, losses exactly.
func reference(m *model.Model) (*train.HotlineTrainer, []float64) {
	ref := train.NewHotline(m, 0.1)
	ref.LearnSamples = probeLearn
	return ref, train.StepAll(ref, probeBatches(m.Cfg), nil)
}

// hotAwarePart builds the hot-aware placement from the probe's own stream
// (every observed row pinned to its dominant requester).
func hotAwarePart(cfg data.Config, nodes int) *shard.Ownership {
	rc := shard.NewRequestCounter(nodes)
	for _, b := range probeBatches(cfg) {
		for t := range b.Sparse {
			rc.Observe(t, b.Sparse[t])
		}
	}
	return rc.HotAware(nil)
}

// Run executes the invariant table against the suite's transport family.
func Run(t *testing.T, s Suite) {
	cfg := probeCfg()

	t.Run("TrainingParity", func(t *testing.T) {
		grids := []struct {
			prefix     string
			rule       func(*model.Model) model.Optimizer
			nodes      []int
			depths     []int
			placements []string
		}{
			{"", model.NewSGD, []int{2, 4, 8}, []int{1, 2, 4}, []string{"rr", "hot"}},
			// The push of adaptively updated rows, compared once per family.
			{"adagrad_", model.NewAdagrad, []int{2}, []int{2}, []string{"rr"}},
		}
		for _, g := range grids {
			ref, refLosses := reference(model.New(cfg, probeSeed).SetOptimizer(g.rule))
			for _, nodes := range g.nodes {
				for _, depth := range g.depths {
					for _, placement := range g.placements {
						t.Run(g.prefix+formatCell(nodes, depth, placement), func(t *testing.T) {
							var part *shard.Ownership
							if placement == "hot" {
								part = hotAwarePart(cfg, nodes)
							}
							res := trainOver(t, s, model.New(cfg, probeSeed).SetOptimizer(g.rule), nodes, depth, part)
							for i, l := range res.losses {
								if l != refLosses[i] {
									t.Fatalf("iter %d loss %v, single-node reference %v", i, l, refLosses[i])
								}
							}
							if d := model.MaxStateDiff(ref.M, res.m); d != 0 {
								t.Fatalf("parameters diverged from single-node reference: max diff %g", d)
							}
							if res.stats.GatherBytes == 0 || res.stats.ScatterBytes == 0 {
								t.Fatalf("no fabric traffic accounted: %+v", res.stats)
							}
							if depth > 1 && res.stats.Windows == 0 {
								t.Fatalf("depth %d ran no prefetch windows: %+v", depth, res.stats)
							}
						})
					}
				}
			}
		}
	})

	t.Run("CounterEqualityWithInproc", func(t *testing.T) {
		// The transport must not change WHAT is accounted, only how the
		// bytes move: every traffic counter must equal the in-proc path's,
		// wall clocks aside.
		inproc := Suite{Name: "inproc"}
		for _, nodes := range []int{2, 4} {
			want := trainOver(t, inproc, model.New(cfg, probeSeed), nodes, 2, nil).stats.WithoutWall()
			got := trainOver(t, s, model.New(cfg, probeSeed), nodes, 2, nil).stats.WithoutWall()
			if got != want {
				t.Fatalf("nodes=%d: counters diverged from in-proc:\n got %+v\nwant %+v", nodes, got, want)
			}
		}
	})

	t.Run("DepthDeterminism", func(t *testing.T) {
		// The depth-k window ring with dirty-row repair must be
		// bit-deterministic in k over the transport.
		base := trainOver(t, s, model.New(cfg, probeSeed), 2, 1, nil)
		for _, depth := range []int{2, 4} {
			res := trainOver(t, s, model.New(cfg, probeSeed), 2, depth, nil)
			if d := model.MaxStateDiff(base.m, res.m); d != 0 {
				t.Fatalf("depth %d diverged from depth 1: max diff %g", depth, d)
			}
			if res.stats.Windows == 0 {
				t.Fatalf("depth %d: no windows issued", depth)
			}
		}
	})

	t.Run("ServeTrainSeparation", func(t *testing.T) { runServeSeparation(t, s) })
	t.Run("CleanShutdown", func(t *testing.T) { runCleanShutdown(t, s) })
}

func formatCell(nodes, depth int, placement string) string {
	return fmt.Sprintf("n%d_d%d_%s", nodes, depth, placement)
}

// fabricFixture is a bare service + registered table over the suite's
// transport, for the invariants that drive the shard layer directly.
type fabricFixture struct {
	svc   *shard.Service
	g     *shard.AsyncGatherer
	store [][]float32
}

func newFabricFixture(tb testing.TB, s Suite, nodes, rows, dim int) *fabricFixture {
	tb.Helper()
	f := &fabricFixture{}
	// Pure remote (no device caches): every remote row crosses the fabric,
	// and the cache layer cannot leak state between the serve and train
	// probes below.
	f.svc = shard.New(shard.Config{Nodes: nodes, CacheBytes: 0, RowBytes: int64(dim) * 4}, nil)
	s.attach(tb, f.svc, nodes)
	f.g = f.svc.Gatherer()
	f.store = make([][]float32, rows)
	for r := range f.store {
		f.store[r] = make([]float32, dim)
		for k := range f.store[r] {
			f.store[r][k] = float32(r*100 + k)
		}
	}
	f.svc.RegisterTable(0, rows, func(row int32) []float32 { return f.store[row] })
	if err := f.svc.FabricErr(); err != nil {
		tb.Fatalf("initial shard sync: %v", err)
	}
	return f
}

func runServeSeparation(t *testing.T, s Suite) {
	f := newFabricFixture(t, s, 4, 64, 8)
	defer f.svc.Close()

	trainIdx := [][]int32{{1, 5}, {2, 6}, {3, 7}, {4, 8}}
	if w := f.svc.PlanGather(0, trainIdx); w != nil {
		f.g.GatherSync(w)
		w.Release()
	}
	train := f.svc.Snapshot()
	if train.Lookups == 0 {
		t.Fatal("train probe recorded nothing")
	}

	serveIdx := [][]int32{{9, 13}, {10, 14}, {11, 15}, {12, 16}}
	if st := f.svc.PlanServeGather(0, serveIdx); st != nil {
		f.svc.ServeGatherSync(st)
		for _, row := range []int32{9, 13} {
			if v, ok := st.Lookup(row); ok {
				if want := float32(row * 100); v[0] != want {
					t.Fatalf("served row %d = %v want %v", row, v[0], want)
				}
			}
		}
		st.Release()
	}
	serve := f.svc.ServeSnapshot()
	if serve.Lookups == 0 {
		t.Fatal("serve probe recorded nothing")
	}
	if f.svc.Multiproc() && serve.GatherWall == 0 {
		t.Fatal("multiproc serve read crossed no measured fabric")
	}
	if got := f.svc.Snapshot(); got != train {
		t.Fatalf("serve traffic leaked into training counters:\n got %+v\nwas %+v", got, train)
	}
	if err := f.svc.FabricErr(); err != nil {
		t.Fatal(err)
	}
}

func runCleanShutdown(t *testing.T, s Suite) {
	f := newFabricFixture(t, s, 4, 32, 8)
	idx := [][]int32{{1, 2}, {5, 6}}
	st := f.svc.PlanGather(0, idx)
	if st == nil {
		t.Fatal("probe plan needed no fabric fetches")
	}
	f.g.Submit(st)

	// Close with the window still open — twice, concurrently would also be
	// legal (covered by the shard package's own lifecycle test); the
	// contract here is that the in-flight window survives.
	if err := f.svc.Close(); err != nil {
		t.Fatalf("close with open window: %v", err)
	}
	st.Consume()
	// Rows 1 and 2 are requested by batch position 0 (node 0) and owned by
	// nodes 1 and 2 under round-robin — both must have crossed the fabric.
	for _, row := range []int32{1, 2} {
		v, ok := st.Lookup(row)
		if !ok {
			t.Fatalf("remote row %d not staged", row)
		}
		if want := float32(row * 100); v[0] != want {
			t.Fatalf("row %d = %v want %v", row, v[0], want)
		}
	}
	st.Release()
	if err := f.svc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := f.svc.FabricErr(); err != nil {
		t.Fatal(err)
	}
}
