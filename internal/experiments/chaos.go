package experiments

import (
	"fmt"
	"time"

	"hotline/internal/data"
	"hotline/internal/pipeline"
	"hotline/internal/report"
	"hotline/internal/shard"
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
	cfg := data.CriteoKaggle()
	for _, nodes := range []int{2, 4, 8} {
		for _, policy := range []shard.RecoveryPolicy{shard.RecoverRedial, shard.RecoverAdopt} {
			m, err := pipeline.MeasureChaos(cfg, pipeline.ChaosProbe{
				Nodes: nodes, Network: "unix", Iters: chaosIters, Batch: chaosBatch,
				Policy: policy, RestartAfter: chaosRestartAfter,
			})
			if err != nil {
				t.AddRow(fmt.Sprint(nodes), policy.String(), "error: "+err.Error(),
					"-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			t.AddRow(fmt.Sprint(nodes), m.Policy, m.Schedule,
				m.RecoveryWall.Round(10*time.Microsecond).String(),
				fmt.Sprint(m.Redials), fmt.Sprint(m.Adoptions),
				fmt.Sprintf("%.1f", float64(m.MigratedBytes)/1024),
				fmt.Sprintf("%.1f", float64(m.ResyncBytes)/1024),
				fmt.Sprint(m.RefetchedRows), fmt.Sprint(m.StaleServeRows),
				fmt.Sprintf("%g", m.MaxStateDiff))
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
