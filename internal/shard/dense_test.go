package shard

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"hotline/internal/tensor"
)

// mapCache is the device cache as it was before the dense index: the same
// slot table, free list and recency list behind a Go map, every use moved at
// once. It is the model TestDeviceCacheMatchesMapModel holds the
// dense-indexed cache to.
type mapCache struct {
	capBytes  int64
	usedBytes int64
	index     map[uint64]int
	slots     []cacheSlot
	free      []int
	lru       []int // slot ids, most recent first

	// evicts and quantHits are the model's own tallies, kept to show the
	// random sequence reached both; victims lists the keys evicted, in order.
	evicts, quantHits int64
	victims           []uint64
}

func newMapCache(capBytes int64) *mapCache {
	return &mapCache{capBytes: capBytes, index: make(map[uint64]int)}
}

func (c *mapCache) touch(i int) {
	c.lru = slices.Insert(slices.DeleteFunc(c.lru, func(s int) bool { return s == i }), 0, i)
}

func (c *mapCache) lookup(key uint64) (Width, bool) {
	i, ok := c.index[key]
	if !ok {
		return WidthFP32, false
	}
	if c.slots[i].width != WidthFP32 {
		c.quantHits++
	}
	c.touch(i)
	return c.slots[i].width, true
}

func (c *mapCache) remove(i int) {
	delete(c.index, c.slots[i].key)
	c.lru = slices.DeleteFunc(c.lru, func(s int) bool { return s == i })
	c.usedBytes -= int64(c.slots[i].bytes)
	c.slots[i] = cacheSlot{}
	c.free = append(c.free, i)
}

func (c *mapCache) insert(key uint64, width Width, bytes int64) (bool, int) {
	if c.capBytes == 0 || bytes <= 0 || bytes > c.capBytes {
		return false, 0
	}
	if i, ok := c.index[key]; ok {
		if c.slots[i].width == width {
			c.touch(i)
			return true, 0
		}
		c.remove(i)
	}
	evictions := 0
	for c.usedBytes+bytes > c.capBytes && len(c.index) > 0 {
		v := c.lru[len(c.lru)-1]
		c.victims = append(c.victims, c.slots[v].key)
		c.remove(v)
		c.evicts++
		evictions++
	}
	var i int
	if n := len(c.free); n > 0 {
		i, c.free = c.free[n-1], c.free[:n-1]
	} else {
		c.slots = append(c.slots, cacheSlot{})
		i = len(c.slots) - 1
	}
	c.slots[i] = cacheSlot{key: key, width: width, bytes: int32(bytes)}
	c.index[key] = i
	c.lru = slices.Insert(c.lru, 0, i)
	c.usedBytes += bytes
	return true, evictions
}

// TestDeviceCacheMatchesMapModel drives the dense-indexed cache and the
// map-backed model with the same random probe / Insert / width-change
// sequence and requires, operation by operation, the same probe and Insert
// results, victims (the resident set is compared after every admission),
// entry count and bytes held. Keys span three tables, each sized up front as
// registration sizes it. A second phase alternates runs of hits and
// refreshes on resident keys, each longer than the cache's batch of deferred
// uses (so the cache returns to deferring and flushes a full batch), with
// bursts of admissions that evict.
func TestDeviceCacheMatchesMapModel(t *testing.T) {
	const dim, universe = 16, 96
	widths := []Width{WidthFP32, WidthFP16, WidthINT8}
	keys := make([]uint64, universe)
	for i := range keys {
		keys[i] = key(i%3, int32(i/3*7)) // rows 0,7,14,…: the index has gaps
	}
	rng := tensor.NewRNG(11)
	budget := 12 * WidthFP32.RowBytes(dim)
	c, m := NewDeviceCache(budget), newMapCache(budget)
	for tb := range 3 {
		c.SizeTable(tb, universe/3*7)
	}
	resident := func(where string, step int) {
		t.Helper()
		for _, k := range keys {
			_, want := m.index[k]
			if c.Contains(k) != want {
				t.Fatalf("step %d (%s): key %x resident = %v, model says %v (model victims so far %x)",
					step, where, k, !want, want, m.victims)
			}
		}
	}
	lookup := func(step int, k uint64) {
		t.Helper()
		gw, gh := probe(c, k)
		ww, wh := m.lookup(k)
		if gw != ww || gh != wh {
			t.Fatalf("step %d: probe(%x) = (%v, %v), model (%v, %v)", step, k, gw, gh, ww, wh)
		}
	}
	insert := func(step int, k uint64, w Width) {
		t.Helper()
		gok, gev := c.Insert(k, w, w.RowBytes(dim))
		wok, wev := m.insert(k, w, w.RowBytes(dim))
		if gok != wok || gev != wev {
			t.Fatalf("step %d: Insert(%x, %v) = (%v, %d evictions), model (%v, %d)", step, k, w, gok, gev, wok, wev)
		}
		resident("after insert", step)
	}
	held := func(step int) {
		t.Helper()
		if c.usedBytes != m.usedBytes || c.Len() != len(m.index) {
			t.Fatalf("step %d: cache holds %d entries in %d bytes, model %d in %d", step,
				c.Len(), c.usedBytes, len(m.index), m.usedBytes)
		}
	}
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(universe)]
		if rng.Intn(100) < 55 {
			lookup(step, k)
		} else {
			// A key's width is usually a function of the key, so most
			// re-inserts refresh; one in eight moves it to another tier.
			w := widths[int(k)%len(widths)]
			if rng.Intn(8) == 0 {
				w = widths[rng.Intn(len(widths))]
			}
			insert(step, k, w)
		}
		held(step)
	}
	if m.evicts == 0 || m.quantHits == 0 {
		t.Fatalf("the sequence never evicted (%d) or hit a narrow entry (%d)", m.evicts, m.quantHits)
	}

	evicts := m.evicts
	step := 20000
	for range 12 {
		var hold []uint64
		for _, k := range keys {
			if _, ok := m.index[k]; ok {
				hold = append(hold, k)
			}
		}
		for range 3*lruBatch + 17 {
			k := hold[rng.Intn(len(hold))]
			if rng.Intn(4) == 0 {
				insert(step, k, m.slots[m.index[k]].width) // a same-width refresh
			} else {
				lookup(step, k)
			}
			held(step)
			step++
		}
		for range 1 + rng.Intn(6) {
			k := keys[rng.Intn(universe)]
			insert(step, k, widths[int(k)%len(widths)])
			held(step)
			step++
		}
	}
	if m.evicts == evicts {
		t.Fatal("the hit runs' bursts never evicted")
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
// dedup stamps, window pool — allocate nothing, whether rows hit or are
// evicted and re-admitted every step.
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
		{"Preload", func() { s.Preload(2, idx[0]) }},
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
