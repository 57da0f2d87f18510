//hotline:typed-errors

package conformance

import (
	"testing"
	"time"

	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/shard/chaos"
)

// RecoverySuite: the fault-recovery contracts of the resilient fabric,
// driven by a deterministic chaos schedule against real killable node
// processes.
//
//   - KillRedial: a peer is killed mid-training and restarted on a new
//     address; the transport re-dials, resyncs the empty store from the
//     mirror, and the run's losses and final parameters are bit-identical
//     to the fault-free single-node reference.
//   - KillAdopt: a peer is killed and never returns; past the retry budget
//     the survivors adopt its shard (rows migrated from the authoritative
//     mirror, fetches re-routed) and the run is still bit-identical.
//   - ServeOutage: with a peer down, the serve read path answers from the
//     coordinator's warmed mirror (StaleServeRows counted, no errors) and
//     un-degrades by itself when the peer returns; train/serve counter
//     separation holds throughout.
//
// Bit-identity is exact: per-step losses compare with ==, parameters with
// model.MaxStateDiff == 0. The grid runs nodes {2,4,8} × depths {1,2,4} ×
// both placements (subset under -short), and the package's tests run it
// under -race.

// recoveryGrid returns the (nodes, depth) cells for the current test mode.
func recoveryGrid(short bool) (nodes, depths []int) {
	if short {
		return []int{2, 4}, []int{1, 2}
	}
	return []int{2, 4, 8}, []int{1, 2, 4}
}

// redialRetry is the retry policy of the restart scenarios: generous
// re-dial attempts with the default doubling backoff, so a peer whose
// restart takes tens of milliseconds (or a loaded -race machine) is always
// re-acquired well inside the budget.
func redialRetry() shard.RetryConfig {
	return shard.RetryConfig{MaxRedials: 40}
}

// adoptRetry is the retry policy of the adoption scenarios: give up on the
// dead peer almost immediately (it is never coming back) so the run spends
// its time in failover, not in backoff.
func adoptRetry() shard.RetryConfig {
	return shard.RetryConfig{
		MaxAttempts: 1,
		MaxRedials:  2,
		Backoff:     func(int) time.Duration { return 0 },
	}
}

// suiteTimeout derives the fabric timeout from the test deadline (deflake
// contract: a hung socket fails the test loudly, never times the run out).
func suiteTimeout(tb testing.TB) time.Duration {
	if t, ok := tb.(*testing.T); ok {
		if d, ok := t.Deadline(); ok {
			if rem := time.Until(d) / 2; rem < shard.DefaultIOTimeout {
				return rem
			}
		}
	}
	return shard.DefaultIOTimeout
}

// resilientFabric starts a local fabric and puts a ResilientTransport over
// it whose re-dials follow restarted nodes (Resolve is the fabric's).
func resilientFabric(tb testing.TB, network string, nodes int, retry shard.RetryConfig) (*shard.LocalFabric, *shard.ResilientTransport) {
	tb.Helper()
	fab, err := shard.StartLocalFabric(nodes, network, suiteTimeout(tb), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fab.Close() })
	retry.Resolve = fab.Resolve
	rt, err := shard.NewResilientTransport(fab.Transport, retry)
	if err != nil {
		tb.Fatal(err)
	}
	return fab, rt
}

// trainChaos is trainRun against a local fabric: same probe stream, same
// executor, with the schedule applied once per training window and the
// recovery policy armed.
func trainChaos(tb testing.TB, network string, nodes, depth int, part *shard.Ownership,
	policy shard.RecoveryPolicy, retry shard.RetryConfig, sched chaos.Schedule) runResult {
	tb.Helper()
	fab, rt := resilientFabric(tb, network, nodes, retry)
	return trainRun(tb, model.New(probeCfg(), probeSeed), nodes, depth, part, func(svc *shard.Service) {
		svc.SetRecovery(policy)
		svc.SetTransport(rt)
	}, func(w int) { sched.Apply(fab, w) })
}

// RunRecovery executes the recovery contract suite on one socket family.
func RunRecovery(t *testing.T, network string) {
	cfg := probeCfg()

	// The fault-free reference is the bar every recovered run must clear.
	ref, refLosses := reference(model.New(cfg, probeSeed))

	assertBitIdentical := func(t *testing.T, res runResult) {
		t.Helper()
		for i, l := range res.losses {
			if l != refLosses[i] {
				t.Fatalf("iter %d loss %v, fault-free reference %v", i, l, refLosses[i])
			}
		}
		if d := model.MaxStateDiff(ref.M, res.m); d != 0 {
			t.Fatalf("parameters diverged from fault-free reference: max diff %g", d)
		}
	}

	nodesGrid, depthsGrid := recoveryGrid(testing.Short())

	// KillRedial: SIGTERM-equivalent kill at window 1 (mid-pipeline for
	// depth > 1 — the windows prefetched at window 0 are still open),
	// restart on a new port shortly after; training must converge
	// bit-identically through the outage.
	t.Run("KillRedial", func(t *testing.T) {
		for _, nodes := range nodesGrid {
			for _, depth := range depthsGrid {
				for _, placement := range []string{"rr", "hot"} {
					nodes, depth, placement := nodes, depth, placement
					t.Run(formatCell(nodes, depth, placement), func(t *testing.T) {
						var part *shard.Ownership
						if placement == "hot" {
							part = hotAwarePart(cfg, nodes)
						}
						sched := chaos.KillRestart(nodes-1, 1, 10*time.Millisecond)
						res := trainChaos(t, network, nodes, depth, part,
							shard.RecoverRedial, redialRetry(), sched)
						assertBitIdentical(t, res)
						if res.stats.GatherBytes == 0 {
							t.Fatalf("no fabric traffic accounted: %+v", res.stats)
						}
					})
				}
			}
		}
	})

	// KillAdopt: the peer never comes back; the survivors must adopt its
	// shard and finish the run bit-identically.
	t.Run("KillAdopt", func(t *testing.T) {
		for _, nodes := range nodesGrid {
			for _, depth := range depthsGrid {
				for _, placement := range []string{"rr", "hot"} {
					nodes, depth, placement := nodes, depth, placement
					t.Run(formatCell(nodes, depth, placement), func(t *testing.T) {
						var part *shard.Ownership
						if placement == "hot" {
							part = hotAwarePart(cfg, nodes)
						}
						sched := chaos.Kill(nodes-1, 1)
						res := trainChaos(t, network, nodes, depth, part,
							shard.RecoverAdopt, adoptRetry(), sched)
						assertBitIdentical(t, res)
					})
				}
			}
		}
	})

	t.Run("ServeOutage", func(t *testing.T) { runServeOutage(t, network) })
}

// runServeOutage drives the graceful-degradation contract: rows served
// during the outage come from the mirror with StaleServeRows counted and no
// errors; after the peer restarts, serving un-degrades and mixed
// train+serve traffic behaves exactly as on a healthy fabric.
func runServeOutage(t *testing.T, network string) {
	const nodes, rows, dim = 4, 64, 8
	fab, rt := resilientFabric(t, network, nodes, redialRetry())

	svc := shard.New(shard.Config{Nodes: nodes, CacheBytes: 0, RowBytes: dim * 4}, nil)
	svc.SetTransport(rt)
	defer svc.Close()
	store := make([][]float32, rows)
	for r := range store {
		store[r] = make([]float32, dim)
		for k := range store[r] {
			store[r][k] = float32(r*100 + k)
		}
	}
	svc.RegisterTable(0, rows, func(row int32) []float32 { return store[row] })
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("initial shard sync: %v", err)
	}

	// Rows 1, 5, 9 are owned by node 1 under round-robin; requested by
	// batch position 0 (node 0) they must cross the fabric.
	serveIdx := [][]int32{{1, 5, 9}}
	serveOnce := func() *shard.Staging {
		st := svc.PlanServeGather(0, serveIdx)
		if st == nil {
			t.Fatal("serve plan needed no fabric fetches")
		}
		svc.ServeGatherSync(st)
		for _, row := range serveIdx[0] {
			if v, ok := st.Lookup(row); ok {
				if want := float32(row * 100); v[0] != want {
					t.Fatalf("served row %d = %v want %v", row, v[0], want)
				}
			}
		}
		return st
	}

	// Healthy baseline.
	serveOnce().Release()
	if n := svc.ServeSnapshot().StaleServeRows; n != 0 {
		t.Fatalf("healthy serve counted %d stale rows", n)
	}

	// Outage: node 1 down, no restart yet. Serving keeps answering — from
	// the mirror — and counts every owed row stale.
	fab.Kill(1)
	serveOnce().Release()
	stale := svc.ServeSnapshot().StaleServeRows
	if stale != int64(len(serveIdx[0])) {
		t.Fatalf("outage serve counted %d stale rows, want %d", stale, len(serveIdx[0]))
	}
	if err := svc.FabricErr(); err != nil {
		t.Fatalf("degraded serve recorded a fabric error: %v", err)
	}
	if svc.Snapshot().StaleServeRows != 0 {
		t.Fatal("stale serve rows leaked into the training counters")
	}

	// Recovery: the peer restarts on a new address; the next serve gather's
	// probe re-dials and resyncs it, and the stale counter stops moving.
	if err := fab.Restart(1); err != nil {
		t.Fatal(err)
	}
	serveOnce().Release()
	if got := svc.ServeSnapshot().StaleServeRows; got != stale {
		t.Fatalf("StaleServeRows grew to %d after the peer returned", got)
	}
	if h := svc.PeerHealth()[1]; h.State != shard.PeerAlive || h.Redials < 1 {
		t.Fatalf("peer 1 health after return = %+v", h)
	}

	// Post-recovery mixed train+serve separation, as on a healthy fabric:
	// a training gather moves training counters only.
	trainBefore := svc.Snapshot()
	serveBefore := svc.ServeSnapshot()
	trainIdx := [][]int32{{2, 6, 10}}
	if w := svc.PlanGather(0, trainIdx); w != nil {
		svc.Gatherer().GatherSync(w)
		w.Release()
	}
	if got := svc.ServeSnapshot(); got.WithoutWall() != serveBefore.WithoutWall() {
		t.Fatalf("post-recovery training leaked into serve counters:\n got %+v\nwas %+v", got, serveBefore)
	}
	if got := svc.Snapshot(); got.WithoutWall() == trainBefore.WithoutWall() {
		t.Fatal("post-recovery training moved no training counters")
	}
	if err := svc.FabricErr(); err != nil {
		t.Fatal(err)
	}
}
