package experiments

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
	"hotline/internal/shard/chaos"
)

func init() {
	registry["mn-chaos"] = regEntry{"Multi-node sharded embeddings: fault recovery under a deterministic chaos schedule (measured)", MNChaos}
}

// chaosIters / chaosBatch size the mn-chaos functional runs: long enough
// that the kill at window 1 lands mid-pipeline and recovery has windows
// left to prove bit-identity over, short enough for the CI smoke.
const (
	chaosIters = 8
	chaosBatch = 256
)

// chaosRestartAfter is the wall delay before a killed peer's replacement
// process comes up in the re-dial scenario.
const chaosRestartAfter = 10 * time.Millisecond

// MNChaos kills the highest-numbered shard node at training window 1 —
// mid-pipeline, with prefetched windows open — under both recovery
// policies, and reports what recovery cost: measured recovery latency,
// re-dials, shard adoptions, migrated and resynced row payload, window rows
// refetched through re-routing, and the rows the serve path answered from
// the warmed mirror while the peer was down. The "max diff" column is the
// recovery subsystem's core claim: 0 means training through the fault was
// bit-identical to the fault-free reference run.
func MNChaos() *report.Table {
	t := &report.Table{Header: []string{
		"nodes", "policy", "schedule", "recovery wall", "redials", "adoptions",
		"migrated KB", "resync KB", "refetched", "stale served", "max diff"}}
	fn := pipeline.ProbeShape(data.CriteoKaggle())
	for _, nodes := range []int{2, 4, 8} {
		run := pipeline.Probe{
			Shard: shard.Config{Nodes: nodes, CacheBytes: pipeline.DefaultShardCacheBytes(fn)},
			Iters: chaosIters, Batch: chaosBatch,
		}
		ref, _ := run.Train(fn) // in-proc: records no fabric error
		for _, policy := range []shard.RecoveryPolicy{shard.RecoverRedial, shard.RecoverAdopt} {
			row, err := chaosRow(fn, run, ref, policy)
			if err != nil {
				t.AddRow(fmt.Sprint(nodes), policy.String(), "error: "+err.Error(),
					"-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			t.AddRow(row...)
		}
	}
	t.Notes = "a peer dies at window 1 with prefetch windows open: redial re-dials the " +
		"restarted process and resyncs its (empty) store from the coordinator's " +
		"authoritative mirror; adopt repartitions the dead node's rows onto the " +
		"survivors and re-routes in-flight fetches; in both policies max diff 0 " +
		"proves training through the fault stayed bit-identical, and the stale " +
		"column counts serve rows answered from the warmed mirror during the outage"
	return t
}

// chaosRow trains run over a local unix fabric whose highest-numbered node
// the policy's schedule kills at window 1 — under RecoverRedial it restarts
// on a new address after chaosRestartAfter and the transport re-dials it;
// under RecoverAdopt it stays dead and the survivors adopt its shard — and
// renders the recovery costs next to the parity evidence against the
// fault-free reference ref. Each window also issues one serve-path gather,
// so an outage's graceful degradation is measured in the same run. An error
// means the run did not recover bit-identically.
func chaosRow(fn data.Config, run pipeline.Probe, ref pipeline.ProbeResult, policy shard.RecoveryPolicy) ([]string, error) {
	nodes := run.Shard.Nodes
	sched := chaos.KillRestart(nodes-1, 1, chaosRestartAfter)
	retry := shard.RetryConfig{MaxRedials: 40}
	if policy == shard.RecoverAdopt {
		sched = chaos.Kill(nodes-1, 1)
		retry = shard.RetryConfig{MaxAttempts: 1, MaxRedials: 2, Backoff: func(int) time.Duration { return 0 }}
	}
	fab, err := shard.StartLocalFabric(nodes, "unix", 0, nil)
	if err != nil {
		return nil, fmt.Errorf("start unix fabric: %w", err)
	}
	defer fab.Close()
	retry.Resolve = fab.Resolve
	rt, err := shard.NewResilientTransport(fab.Transport, retry)
	if err != nil {
		return nil, err
	}
	run.Attach = func(svc *shard.Service) {
		svc.SetRecovery(policy)
		svc.SetTransport(rt)
	}
	run.Window = func(svc *shard.Service, i int, b *data.Batch) {
		sched.Apply(fab, i)
		serveProbe(svc, b)
	}
	res, err := run.Train(fn)
	if err != nil {
		return nil, fmt.Errorf("%s run (%s): %w", policy, sched, err)
	}
	if loss, want := res.Losses[len(res.Losses)-1], ref.Losses[len(ref.Losses)-1]; loss != want {
		return nil, fmt.Errorf("%s run diverged from the fault-free reference: loss %v vs %v", policy, loss, want)
	}
	svc := res.Service
	rec := svc.Snapshot()
	redials := 0
	for _, h := range svc.PeerHealth() {
		redials += h.Redials
	}
	return []string{fmt.Sprint(nodes), policy.String(), sched.String(),
		(rec.RecoveryWall + rt.RecoveryWall()).Round(10 * time.Microsecond).String(),
		fmt.Sprint(redials), fmt.Sprint(rec.Adoptions),
		fmt.Sprintf("%.1f", float64(rec.MigratedBytes)/1024),
		fmt.Sprintf("%.1f", float64(rec.ResyncBytes)/1024),
		fmt.Sprint(rec.Refetches), fmt.Sprint(svc.ServeSnapshot().StaleServeRows),
		fmt.Sprintf("%g", model.MaxStateDiff(ref.Model, res.Model))}, nil
}

// serveProbe issues one serve-path gather for the batch's first sparse
// table, exercising graceful degradation while a peer is down. The serve
// window is released immediately; the training counters never move.
func serveProbe(svc *shard.Service, b *data.Batch) {
	if len(b.Sparse) == 0 {
		return
	}
	if w := svc.PlanServeGather(0, b.Sparse[0]); w != nil {
		svc.ServeGatherSync(w)
		w.Release()
	}
}
