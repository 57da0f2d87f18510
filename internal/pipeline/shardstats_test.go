package pipeline

import (
	"testing"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/shard"
)

func TestMeasureShardBasics(t *testing.T) {
	cfg := data.CriteoKaggle()
	m := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: DefaultShardCacheBytes(cfg), Batch: 1024})
	if m.Nodes != 4 {
		t.Fatalf("nodes = %d", m.Nodes)
	}
	if m.RemoteFrac <= 0 || m.RemoteFrac > 1 {
		t.Fatalf("remote frac = %g", m.RemoteFrac)
	}
	// The hot set is preloaded into ample caches, so the skewed head must
	// hit: hit rate well above zero, and the fabric fraction strictly below
	// the raw remote fraction.
	if m.HitRate <= 0.2 {
		t.Fatalf("hit rate = %g, want > 0.2 with a full hot-set cache", m.HitRate)
	}
	if m.GatherFrac >= m.RemoteFrac {
		t.Fatalf("gather frac %g must be < remote frac %g (caching + dedup)", m.GatherFrac, m.RemoteFrac)
	}
	if m.A2ABytesPerIter <= 0 {
		t.Fatal("a2a bytes must be measured")
	}
}

func TestMeasureShardSingleNode(t *testing.T) {
	cfg := data.CriteoKaggle()
	m := MeasureShard(cfg, ShardProbe{Nodes: 1, CacheBytes: DefaultShardCacheBytes(cfg), Batch: 1024})
	if m.RemoteFrac != 0 || m.A2ABytesPerIter != 0 {
		t.Fatalf("single node must be all-local: %+v", m)
	}
}

func TestMeasureShardCachePressure(t *testing.T) {
	cfg := data.CriteoKaggle()
	big := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: DefaultShardCacheBytes(cfg), Batch: 1024})
	tiny := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: DefaultShardCacheBytes(cfg) / 16, Batch: 1024})
	if tiny.HitRate >= big.HitRate {
		t.Fatalf("smaller cache must hit less: tiny %g vs big %g", tiny.HitRate, big.HitRate)
	}
	if tiny.GatherFrac <= big.GatherFrac {
		t.Fatalf("smaller cache must gather more: tiny %g vs big %g", tiny.GatherFrac, big.GatherFrac)
	}
}

// TestMeasureShardKeysTheReplayedBatch: the replayed batch is capped, so
// two probes that differ only above the cap replay the same stream and must
// share one memo entry instead of measuring it twice.
func TestMeasureShardKeysTheReplayedBatch(t *testing.T) {
	cfg := data.CriteoKaggle()
	entries := func() int {
		n := 0
		shardStats.m.Range(func(any, any) bool { n++; return true })
		return n
	}
	before := entries()
	a := MeasureShard(cfg, ShardProbe{Nodes: 3, CacheBytes: DefaultShardCacheBytes(cfg), Batch: 2 * maxShardBatch})
	b := MeasureShard(cfg, ShardProbe{Nodes: 3, CacheBytes: DefaultShardCacheBytes(cfg), Batch: 4 * maxShardBatch})
	if got := entries() - before; got != 1 {
		t.Fatalf("two probes above the batch cap added %d memo entries, want 1", got)
	}
	if a != b {
		t.Fatal("probes replaying the same capped batch measured differently")
	}
}

// TestMeasureShardPlacements exercises the full probe surface: hot-aware
// ownership must beat blind round-robin on the measured all-to-all volume
// (the mn-place acceptance claim, asserted at test granularity).
func TestMeasureShardPlacements(t *testing.T) {
	cfg := data.CriteoKaggle()
	cache := DefaultShardCacheBytes(cfg) / 8
	rr := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: cache, Batch: 1024,
		Placement: shard.PlaceRoundRobin})
	ha := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: cache, Batch: 1024,
		Placement: shard.PlaceHotAware})
	cw := MeasureShard(cfg, ShardProbe{Nodes: 4, CacheBytes: cache, Batch: 1024,
		Placement: shard.PlaceCapacity,
		HBMBytes:  []int64{3 * cache, 2 * cache, 2 * cache, cache}})
	if rr.Placement != "round-robin" || ha.Placement != "hot-aware" || cw.Placement != "capacity-weighted" {
		t.Fatalf("placement labels: %q %q %q", rr.Placement, ha.Placement, cw.Placement)
	}
	if ha.A2ABytesPerIter >= rr.A2ABytesPerIter {
		t.Fatalf("hot-aware a2a %d must be < round-robin %d",
			ha.A2ABytesPerIter, rr.A2ABytesPerIter)
	}
	if ha.LocalFrac <= rr.LocalFrac {
		t.Fatalf("hot-aware local frac %g must exceed round-robin %g", ha.LocalFrac, rr.LocalFrac)
	}
	if rr.OverlapMeasured {
		t.Fatal("exposed frac must default to unmeasured")
	}
}

// TestMeasureShardQuantReprices: the probe's precision-tiering knob is part
// of the measurement identity, the narrow tier's effective capacity shows up
// in the measured frontier (more resident rows, higher hit rate, fewer
// all-to-all bytes at the same byte budget), and the timing models reprice
// off the quantized measurement automatically — no model code knows about
// widths, it just consumes better measured stats.
func TestMeasureShardQuantReprices(t *testing.T) {
	cfg := data.CriteoKaggle()
	cache := DefaultShardCacheBytes(cfg) / 8
	probe := ShardProbe{Nodes: 4, CacheBytes: cache, Batch: 1024}
	off := MeasureShard(cfg, probe)
	probe.Quant = shard.QuantINT8
	i8 := MeasureShard(cfg, probe)

	if off.Quant != "fp32" || off.QuantHitFrac != 0 {
		t.Fatalf("fp32 probe must record its mode and no warm hits: %q %g", off.Quant, off.QuantHitFrac)
	}
	if i8.Quant != "int8" || i8.QuantHitFrac == 0 {
		t.Fatalf("int8 probe must record its mode and warm-tier hits: %q %g", i8.Quant, i8.QuantHitFrac)
	}
	if i8.CacheRows < 2*off.CacheRows {
		t.Fatalf("int8 cache holds %d rows vs %d fp32 at the same bytes; want >= 2x", i8.CacheRows, off.CacheRows)
	}
	if i8.HitRate <= off.HitRate || i8.A2ABytesPerIter >= off.A2ABytesPerIter {
		t.Fatalf("int8 frontier must dominate: hit %g vs %g, a2a %d vs %d",
			i8.HitRate, off.HitRate, i8.A2ABytesPerIter, off.A2ABytesPerIter)
	}
	if again := MeasureShard(cfg, probe); again != i8 {
		t.Fatal("repeated int8 probe returned a different (cross-mode) memo entry")
	}

	// The analytic pipelines consume the measurement as-is: Hotline's model
	// eats the measured gather fraction, so the quantized probe's smaller
	// fabric volume must price a strictly faster iteration; the GPU-only
	// HugeCTR baseline has no device cache in its model (only RemoteFrac),
	// so its price must not move at all.
	sys := cost.PaperCluster(4)
	w := NewWorkload(cfg, 4096, sys)
	hl := NewHotline()
	w.Shard = &off
	hlOff := hl.Iteration(w)
	w.Shard = &i8
	hlI8 := hl.Iteration(w)
	if !hlOff.OOM && !hlI8.OOM && hlI8.Total >= hlOff.Total {
		t.Fatalf("Hotline: quantized measurement must reprice faster: %v vs %v", hlI8.Total, hlOff.Total)
	}
	ctr := NewHugeCTR()
	w.Shard = &off
	ctrOff := ctr.Iteration(w)
	w.Shard = &i8
	ctrI8 := ctr.Iteration(w)
	if ctrI8.Total != ctrOff.Total {
		t.Fatalf("HugeCTR (cache-free baseline) must be precision-inert: %v vs %v", ctrI8.Total, ctrOff.Total)
	}
}

// TestHotlineConsumesExposedFrac: a measured exposed-gather fraction moves
// the Hotline iteration monotonically between the fully-hidden and
// no-overlap extremes.
func TestHotlineConsumesExposedFrac(t *testing.T) {
	cfg := data.CriteoKaggle()
	sys := cost.PaperCluster(4)
	w := NewShardedWorkload(cfg, 4096*4, sys)
	analytic := float64(NewHotline().Iteration(w).Total) // OverlapMeasured unset
	iter := func(f float64) float64 {
		w.Shard.SetExposedFrac(f)
		return float64(NewHotline().Iteration(w).Total)
	}
	hidden, half, full := iter(0), iter(0.5), iter(1)
	if !(hidden < half && half < full) {
		t.Fatalf("exposed fraction must price monotonically: %g %g %g", hidden, half, full)
	}
	if analytic > full || analytic <= 0 {
		t.Fatalf("analytic schedule must sit within the measured envelope: %g vs full %g", analytic, full)
	}
	w.Shard.SetExposedFrac(1)
	noOverlap := float64(NewHotlineNoOverlap().Iteration(w).Total)
	if full != noOverlap {
		t.Fatalf("fully exposed (%g) must equal the no-overlap ablation (%g)", full, noOverlap)
	}
}

func TestShardedWorkloadFeedsTimingModels(t *testing.T) {
	cfg := data.CriteoKaggle()
	sys := cost.PaperCluster(2)
	plain := NewWorkload(cfg, 4096, sys)
	sharded := NewShardedWorkload(cfg, 4096, sys)
	if sharded.Shard == nil || sharded.Shard.Nodes != 2 {
		t.Fatal("sharded workload must carry a measurement for sys.Nodes")
	}

	for _, p := range []Pipeline{NewHotline(), NewHugeCTR()} {
		a, b := p.Iteration(plain), p.Iteration(sharded)
		if a.OOM || b.OOM {
			continue
		}
		if a.Total == b.Total {
			t.Fatalf("%s: measured stats must change the timing (both %v)", p.Name(), a.Total)
		}
		if b.Total <= 0 {
			t.Fatalf("%s: non-positive iteration time", p.Name())
		}
	}
}

// TestShardedWorkloadMeasuresOverlap: NewShardedWorkload must price the
// exposed-gather fraction from the pipelined async engine's measurement by
// default — every mn-* scenario consumes it, not only mn-overlap.
func TestShardedWorkloadMeasuresOverlap(t *testing.T) {
	cfg := data.CriteoKaggle()
	for _, nodes := range []int{2, 4} {
		w := NewShardedWorkload(cfg, 4096*nodes, cost.PaperCluster(nodes))
		if w.Shard == nil {
			t.Fatalf("nodes=%d: workload carries no shard measurement", nodes)
		}
		if !w.Shard.OverlapMeasured {
			t.Fatalf("nodes=%d: exposed fraction not measured by default", nodes)
		}
		if f := w.Shard.ExposedFrac; f < 0 || f > 1 {
			t.Fatalf("nodes=%d: exposed fraction %v outside [0,1]", nodes, f)
		}
		// Memoisation: a second workload must see the identical fraction
		// (the sweep's determinism depends on it).
		w2 := NewShardedWorkload(cfg, 4096*nodes, cost.PaperCluster(nodes))
		if w2.Shard.ExposedFrac != w.Shard.ExposedFrac {
			t.Fatalf("nodes=%d: exposed fraction not memoised (%v vs %v)",
				nodes, w.Shard.ExposedFrac, w2.Shard.ExposedFrac)
		}
	}
	// Single node: no fabric, no overlap measurement.
	w := NewShardedWorkload(cfg, 4096, cost.PaperCluster(1))
	if w.Shard.OverlapMeasured {
		t.Fatal("nodes=1 must not report a measured overlap")
	}
}

// TestMeasureOverlapDepthKeyed: the depth is part of the overlap memo
// identity — each k gets its own measurement — and the default depth (0)
// agrees with the explicit depth-2 probe.
func TestMeasureOverlapDepthKeyed(t *testing.T) {
	cfg := data.CriteoKaggle()
	f2 := MeasureOverlap(cfg, 2, 2)
	if got := MeasureOverlap(cfg, 2, 0); got != f2 {
		t.Fatalf("default depth diverged: %v vs %v", got, f2)
	}
	if got := MeasureOverlap(cfg, 2, 2); got != f2 {
		t.Fatalf("depth measurement not memoised: %v vs %v", got, f2)
	}
	if f := MeasureOverlap(cfg, 1, 4); f != 0 {
		t.Fatalf("single node must expose nothing: %v", f)
	}
}

// TestDepthExposedFracNonIncreasing is the mn-depth acceptance claim at
// test granularity: the depth-2 pipeline must not expose MORE gather time
// than the degenerate depth-1 queue, whose single window is issued at
// consume time — synchronous by construction, so its fraction is exactly
// 1 (not a noisy timing of two identical runs).
func TestDepthExposedFracNonIncreasing(t *testing.T) {
	cfg := data.CriteoKaggle()
	f1 := MeasureOverlap(cfg, 4, 1)
	f2 := MeasureOverlap(cfg, 4, 2)
	if f1 != 1 {
		t.Fatalf("depth-1 exposure must be exactly 1 (synchronous by construction), got %v", f1)
	}
	if f2 > f1 {
		t.Fatalf("exposed fraction must be non-increasing from k=1 (%v) to k=2 (%v)", f1, f2)
	}
}
