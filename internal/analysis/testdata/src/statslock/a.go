// Package statslock is the statslock analyzer's fixture, exercising the
// counter discipline against the real shard.Stats types.
package statslock

import "hotline/internal/shard"

type holder struct {
	stats shard.Stats
	serve shard.Stats
}

func (h *holder) bump() {
	h.stats.Lookups++ // want "field Lookups of shard.Stats written outside"
}

func (h *holder) stale() {
	h.serve.StaleRows++ // want "field StaleRows of shard.Stats written outside"
}

func escape(h *holder) *int64 {
	return &h.stats.Lookups // want "field Lookups of shard.Stats written outside"
}

//hotline:stats-writer
func (h *holder) record() {
	h.stats.Lookups++
}

// snapshotDelta mutates a value-typed copy — copies cannot race, so the
// snapshot arithmetic is allowed.
func snapshotDelta(a, b shard.Stats) shard.Stats {
	a.Lookups -= b.Lookups
	return a
}
