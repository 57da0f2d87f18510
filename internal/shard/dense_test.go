package shard

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hotline/internal/tensor"
)

// mapCache is the device cache as a free-space model: a Go map from key to
// width and footprint, and a byte total. It is the model
// TestDeviceCacheMatchesMapModel holds the dense-indexed cache to.
type mapCache struct {
	capBytes  int64
	usedBytes int64
	index     map[uint64]cacheSlot

	// refusals and quantHits are the model's own tallies, kept to show the
	// random sequence reached both.
	refusals, quantHits int64
}

func newMapCache(capBytes int64) *mapCache {
	return &mapCache{capBytes: capBytes, index: make(map[uint64]cacheSlot)}
}

func (c *mapCache) lookup(key uint64) (Width, bool) {
	e, ok := c.index[key]
	if !ok {
		return WidthFP32, false
	}
	if e.width != WidthFP32 {
		c.quantHits++
	}
	return e.width, true
}

// admit caches an absent key when it fits the free bytes.
func (c *mapCache) admit(key uint64, width Width, bytes int64) bool {
	if c.usedBytes+bytes > c.capBytes {
		c.refusals++
		return false
	}
	c.index[key] = cacheSlot{key: key, width: width, bytes: int32(bytes)}
	c.usedBytes += bytes
	return true
}

func (c *mapCache) remove(key uint64) {
	c.usedBytes -= int64(c.index[key].bytes)
	delete(c.index, key)
}

// TestDeviceCacheMatchesMapModel drives the dense-indexed cache and the
// free-space model with the same random probe / admission / removal
// sequence and requires, operation by operation, the same probe and
// admission results, the same resident set (compared after every admission
// and removal), entry count and bytes held. An admission is of an absent key,
// as the walk's miss and Relearn make it; a removal is of a resident one, as
// Relearn makes it, and recycles its slot. Keys span three tables, each sized
// up front as registration sizes it.
func TestDeviceCacheMatchesMapModel(t *testing.T) {
	const dim, universe = 16, 96
	widths := []Width{WidthFP32, WidthFP16, WidthINT8}
	keys := make([]uint64, universe)
	for i := range keys {
		keys[i] = key(i%3, int32(i/3*7)) // rows 0,7,14,…: the index has gaps
	}
	rng := tensor.NewRNG(11)
	budget := 12 * WidthFP32.RowBytes(dim)
	c, m := &DeviceCache{capBytes: budget}, newMapCache(budget)
	for tb := range 3 {
		c.SizeTable(tb, universe/3*7)
	}
	resident := func(where string, step int) {
		t.Helper()
		for _, k := range keys {
			_, want := m.index[k]
			if c.Contains(k) != want {
				t.Fatalf("step %d (%s): key %x resident = %v, model says %v", step, where, k, !want, want)
			}
		}
	}
	removals := 0
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(universe)]
		switch _, in := m.index[k]; {
		case rng.Intn(100) < 55:
			gw, gh := probe(c, k)
			if ww, wh := m.lookup(k); gw != ww || gh != wh {
				t.Fatalf("step %d: probe(%x) = (%v, %v), model (%v, %v)", step, k, gw, gh, ww, wh)
			}
		case in:
			c.removeSlot(c.slotOf(k))
			m.remove(k)
			removals++
			resident("after removal", step)
		default:
			// A key's width is usually a function of the key; one admission
			// in eight takes another tier, as a swap re-tiers a row.
			w := widths[int(k)%len(widths)]
			if rng.Intn(8) == 0 {
				w = widths[rng.Intn(len(widths))]
			}
			if got, want := c.admit(k, w, w.RowBytes(dim)), m.admit(k, w, w.RowBytes(dim)); got != want {
				t.Fatalf("step %d: admit(%x, %v) = %v, model %v", step, k, w, got, want)
			}
			resident("after admission", step)
		}
		if c.usedBytes != m.usedBytes || c.Len() != len(m.index) {
			t.Fatalf("step %d: cache holds %d entries in %d bytes, model %d in %d", step,
				c.Len(), c.usedBytes, len(m.index), m.usedBytes)
		}
	}
	if m.refusals == 0 || m.quantHits == 0 || removals == 0 {
		t.Fatalf("the sequence never refused (%d), hit a narrow entry (%d) or removed (%d)",
			m.refusals, m.quantHits, removals)
	}
}

// mapDedup is the accounting walks' per-call dedup as it was: a set of
// (requesting node, row) keys, here counting what one call would gather or
// scatter on a cacheless service — every remote lookup misses, so both walks
// count the distinct remote (node, row) pairs.
func mapDedup(s *Service, table int, indices [][]int32) int64 {
	seen := make(map[uint64]struct{})
	for b := range indices {
		node := s.NodeOf(b)
		for _, ix := range indices[b] {
			if s.Owner(table, ix) != node {
				seen[uint64(node)<<32|uint64(uint32(ix))] = struct{}{}
			}
		}
	}
	return int64(len(seen))
}

// TestStampDedupAcrossEpochWrap: the epoch-stamped dedup counts exactly what
// the map-backed set counted, call after call, through the wrap of the epoch
// counter — including for cells last stamped with the small epoch values the
// restarted counter hands out again.
func TestStampDedupAcrossEpochWrap(t *testing.T) {
	const rows, nodes = 200, 4
	s := New(Config{Nodes: nodes, CacheBytes: 0, RowBytes: 64}, nil)
	s.RegisterTable(0, rows, flatRows(rows, 16))
	rng := tensor.NewRNG(21)
	draw := func() [][]int32 {
		idx := make([][]int32, 24)
		for b := range idx {
			idx[b] = make([]int32, rng.Intn(7))
			for j := range idx[b] {
				idx[b][j] = int32(rng.Intn(rows / 4)) // a narrow range: many repeats to dedup
			}
		}
		return idx
	}
	check := func(when string) {
		t.Helper()
		idx := draw()
		before := s.Snapshot()
		s.RecordGather(0, idx)
		s.RecordScatter(0, idx)
		d, want := s.Snapshot().Sub(before), mapDedup(s, 0, idx)
		if d.GatherRows != want || d.ScatterRows != want {
			t.Fatalf("%s (epoch now %d): gathered %d scattered %d rows, the map dedup counts %d",
				when, s.epoch, d.GatherRows, d.ScatterRows, want)
		}
	}
	// Epochs 1… stamp cells with the values the counter restarts from.
	for i := 0; i < 4; i++ {
		check("fresh service")
	}
	s.mu.Lock()
	s.epoch = math.MaxUint8 - 1
	s.mu.Unlock()
	for i := 0; i < 8; i++ {
		check("across the wrap")
	}
	if s.epoch >= 16 {
		t.Fatalf("epoch %d: the counter never wrapped", s.epoch)
	}
}

// sparseStep is one table's accounting for one training step: the gather
// walk with its window filled and released, then the scatter walk.
func sparseStep(s *Service, table int, idx [][]int32) {
	if w := s.PlanGather(table, idx); w != nil {
		s.Gatherer().GatherSync(w)
		w.Release()
	}
	s.RecordScatter(table, idx)
}

// TestAccountingSteadyStateZeroAlloc: with the table registered, the gather
// and scatter accounting walks — routing array, cache index, slot table,
// dedup stamps, window pool — allocate nothing, whether rows hit or a full
// cache refuses them every step.
func TestAccountingSteadyStateZeroAlloc(t *testing.T) {
	const rows = 512
	for _, cacheRows := range []int64{rows, 8} {
		s := New(Config{Nodes: 4, CacheBytes: cacheRows * 16, RowBytes: 16}, nil)
		s.RegisterTable(0, rows, flatRows(rows, 4))
		rng := tensor.NewRNG(5)
		idx := make([][]int32, 64)
		for b := range idx {
			idx[b] = make([]int32, 6)
			for j := range idx[b] {
				idx[b][j] = int32(rng.Intn(rows))
			}
		}
		for i := 0; i < 4; i++ {
			sparseStep(s, 0, idx)
		}
		if n := testing.AllocsPerRun(50, func() { sparseStep(s, 0, idx) }); n != 0 {
			t.Fatalf("cache of %d rows: accounting step allocates %v/op; want 0", cacheRows, n)
		}
		s.Close()
	}
}

// TestRoutingStateSizedAtRegistration: RegisterTable sizes the owner arrays,
// the cache indexes and the stamps once — 64 steps later none of them has
// moved — and index plus stamps cost at most 5 bytes per (node, registered
// row): 4 for each cache's slot index, 1 for the stamps, which span only the
// largest table.
func TestRoutingStateSizedAtRegistration(t *testing.T) {
	const nodes = 4
	tableRows := []int{300, 120, 7}
	s := New(Config{Nodes: nodes, CacheBytes: 64 * 16, RowBytes: 16}, nil)
	var registered int
	for tb, rows := range tableRows {
		s.RegisterTable(tb, rows, flatRows(rows, 4))
		registered += rows
	}
	addrs := func() []unsafe.Pointer {
		out := []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(s.stamps))}
		for tb := range tableRows {
			out = append(out, unsafe.Pointer(unsafe.SliceData(s.tables[tb].owners)))
			for _, c := range s.caches {
				out = append(out, unsafe.Pointer(unsafe.SliceData(c.index[tb])))
			}
		}
		return out
	}
	before := addrs()
	rng := tensor.NewRNG(9)
	for step := 0; step < 64; step++ {
		for tb, rows := range tableRows {
			idx := make([][]int32, 32)
			for b := range idx {
				idx[b] = []int32{int32(rng.Intn(rows)), int32(rows - 1), int32(rng.Intn(rows))}
			}
			sparseStep(s, tb, idx)
		}
	}
	if after := addrs(); !slices.Equal(before, after) {
		t.Fatal("a routing array was reallocated after registration")
	}
	bytes := int64(cap(s.stamps))
	for _, c := range s.caches {
		for _, ix := range c.index {
			bytes += int64(cap(ix)) * 4
		}
	}
	if limit := int64(5 * nodes * registered); bytes > limit {
		t.Fatalf("index + stamps hold %d bytes for %d rows on %d nodes; limit %d (5 per node and row)", bytes, registered, nodes, limit)
	}
	s.Close()
}

// TestUnregisteredTableWalkPanics: registration is the only way a table
// enters the service. Every walk over a table never registered — beside a
// registered one — panics, naming the table, and leaves the service usable.
func TestUnregisteredTableWalkPanics(t *testing.T) {
	s := register(New(cfg(4, 8), nil), 16, 0)
	defer s.Close()
	idx := [][]int32{{1, 2}, {3}}
	for _, w := range []struct {
		name string
		walk func()
	}{
		{"RecordGather", func() { s.RecordGather(2, idx) }},
		{"PlanGather", func() { s.PlanGather(2, idx) }},
		{"RecordScatter", func() { s.RecordScatter(2, idx) }},
		{"Relearn", func() { s.Relearn(ranked{table: 2, rows: idx[0]}) }},
		{"Owner", func() { s.Owner(2, 1) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "table 2 ") {
					t.Errorf("%s on an unregistered table: panic %q, want one naming table 2", w.name, msg)
				}
			}()
			w.walk()
		}()
		s.RecordGather(0, idx) // the walk released the mutex
	}
}
