//hotline:typed-errors

package pipeline

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/shard"
	"hotline/internal/shard/chaos"
	"hotline/internal/train"
)

// ChaosMeasurement is one functional training run through an injected fault:
// a peer killed mid-pipeline by a deterministic chaos schedule, recovered
// under the requested policy, with the recovery costs measured and the
// bit-parity evidence against the fault-free in-proc reference attached.
type ChaosMeasurement struct {
	// Policy is the recovery policy's name ("redial" or "adopt").
	Policy string
	// Schedule is the applied chaos schedule, rendered ("w1:kill(1) ...").
	Schedule string
	// FinalLoss / MaxStateDiff are the parity evidence vs the fault-free
	// in-proc reference run of the identical stream; MaxStateDiff 0 means
	// the recovered run trained bit-identically through the fault.
	FinalLoss    float64
	MaxStateDiff float64
	// RecoveryWall is the measured wall clock recovery took: the transport's
	// successful re-dial recoveries plus the service's failover work.
	RecoveryWall time.Duration
	// Redials / Adoptions count transport re-dials and shard failovers.
	Redials   int
	Adoptions int
	// MigratedBytes is the row payload failover moved to new owners;
	// ResyncBytes is the payload re-dial recovery pushed to restore
	// restarted (empty) nodes; RefetchedRows counts rows whose window
	// fetches were replayed through recovery re-routing.
	MigratedBytes int64
	ResyncBytes   int64
	RefetchedRows int64
	// StaleServeRows counts rows the serve probe answered from the warmed
	// mirror while the peer was down (graceful degradation, not errors).
	StaleServeRows int64
	// Stats is the training-side counter snapshot of the chaos run.
	Stats shard.Stats
}

// ChaosProbe configures one MeasureChaos measurement.
type ChaosProbe struct {
	Nodes        int    // shard node count (>= 2); the highest-numbered node is the victim
	Depth        int    // prefetch pipeline depth; < 1 selects the executors' default
	Network      string // the chaos fabric's socket family ("unix" or "tcp")
	Iters, Batch int    // size of the functional run
	// Policy is the recovery policy under test (RecoverRedial or
	// RecoverAdopt).
	Policy shard.RecoveryPolicy
	// RestartAfter is the wall delay before the killed peer's replacement
	// comes up under RecoverRedial.
	RestartAfter time.Duration
}

// MeasureChaos trains the pipelined executor functionally on the probe
// shape of cfg twice — fault-free in-proc as the reference, then over a
// chaos fabric (one killable NodeServer per node) where the schedule kills
// the highest-numbered peer at window 1: under RecoverRedial the peer
// restarts on a new address after RestartAfter and the transport re-dials
// it; under RecoverAdopt it stays dead and the survivors adopt its shard.
// Each window also issues one serve-path gather, so an outage's graceful
// degradation (StaleServeRows) is measured in the same run. The returned
// measurement carries the recovery costs and the bit-parity evidence; an
// error means the run did not recover.
func MeasureChaos(cfg data.Config, p ChaosProbe) (ChaosMeasurement, error) {
	if p.Nodes < 2 {
		return ChaosMeasurement{}, fmt.Errorf("chaos measurement needs >= 2 nodes, got %d: %w", p.Nodes, shard.ErrFabricConfig)
	}
	if p.Depth < 1 {
		p.Depth = train.DefaultDepth
	}
	victim := p.Nodes - 1

	var sched chaos.Schedule
	retry := shard.RetryConfig{}
	switch p.Policy {
	case shard.RecoverRedial:
		sched = chaos.KillRestart(victim, 1, p.RestartAfter)
		retry.MaxRedials = 40
		retry.Budget = 30 * time.Second
	case shard.RecoverAdopt:
		sched = chaos.Kill(victim, 1)
		retry.MaxAttempts = 1
		retry.MaxRedials = 2
		retry.Backoff = func(int) time.Duration { return 0 }
	default:
		return ChaosMeasurement{}, fmt.Errorf("chaos measurement needs a recovery policy, got %v: %w", p.Policy, shard.ErrFabricConfig)
	}

	fn := probeShape(cfg)
	run := probeRun{
		fn: fn, nodes: p.Nodes, cacheBytes: DefaultShardCacheBytes(fn),
		depth: p.Depth, iters: p.Iters, batch: p.Batch,
	}
	ref, err := runProbe(run)
	if err != nil {
		return ChaosMeasurement{}, fmt.Errorf("chaos in-proc reference run: %w", err)
	}

	fab, err := chaos.NewFabric(p.Nodes, p.Network, shard.FabricTimeouts{})
	if err != nil {
		return ChaosMeasurement{}, err
	}
	defer fab.Close()
	fab.SetSchedule(sched)
	rt, err := fab.Dial(retry)
	if err != nil {
		return ChaosMeasurement{}, fmt.Errorf("chaos %s run (%s): %w", p.Policy, sched, err)
	}
	run.attach = func(svc *shard.Service) {
		svc.SetRecovery(shard.RecoveryConfig{Policy: p.Policy})
		svc.SetTransport(rt)
	}
	run.window = func(svc *shard.Service, i int, b *data.Batch) {
		fab.Tick(i)
		serveProbe(svc, b)
	}
	res, err := runProbe(run)
	if err != nil {
		return ChaosMeasurement{}, fmt.Errorf("chaos %s run (%s): %w", p.Policy, sched, err)
	}

	rec := res.svc.RecoveryStats()
	m := ChaosMeasurement{
		Policy:         p.Policy.String(),
		Schedule:       sched.String(),
		FinalLoss:      res.loss,
		MaxStateDiff:   model.MaxStateDiff(ref.m, res.m),
		RecoveryWall:   rec.RecoveryWall + rt.RecoveryWall(),
		Adoptions:      rec.Adoptions,
		MigratedBytes:  rec.MigratedBytes,
		ResyncBytes:    rec.ResyncBytes,
		RefetchedRows:  rec.Refetches,
		StaleServeRows: res.svc.ServeSnapshot().StaleServeRows,
		Stats:          res.stats,
	}
	for _, h := range res.svc.PeerHealth() {
		m.Redials += h.Redials
	}
	if res.loss != ref.loss {
		return m, fmt.Errorf("chaos %s run diverged from fault-free reference: loss %v vs %v: %w",
			p.Policy, res.loss, ref.loss, shard.ErrPeerDead)
	}
	return m, nil
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
