package shard

import "fmt"

// Policy selects a device cache's eviction policy.
type Policy uint8

const (
	// PolicyLRU evicts the least-recently-used entry (exact recency list).
	PolicyLRU Policy = iota
	// PolicySRRIP evicts by 2-bit re-reference prediction with CLOCK-style
	// victim search — the hardware-friendly policy the accelerator's EAL
	// uses, here applied to cached rows rather than tracked identifiers.
	PolicySRRIP
)

// String names the policy for reports.
func (p Policy) String() string {
	if p == PolicySRRIP {
		return "SRRIP"
	}
	return "LRU"
}

const cacheRRPVMax = 3 // 2-bit RRPV

// lruBatch is how many uses an LRU cache defers before it folds them into its
// recency list (DeviceCache.flush) — 4 KB of slot indices per cache — and how
// many uses without an eviction return a cache that evicted to deferring.
const lruBatch = 1024

// detached is the prev and next link of a slot that is not on the LRU
// recency list: one admitted since the last flush, and every SRRIP slot
// (SRRIP keeps no list).
const detached = -2

// cacheSlot is one cached row's metadata. Slots form both the SRRIP ring
// and the LRU recency list (prev/next are slot indices; 32 bits hold any slot
// count a byte budget can reach, and the narrower links pay for most of the
// dense index's bytes). A dead (recycled) slot is marked by bytes == 0 — every
// live entry occupies at least one byte — so the CLOCK sweep can skip holes
// left by multi-entry evictions. state is the policy's replacement state:
// SRRIP's 2-bit re-reference prediction value, or LRU's mark — lruUsed while
// the slot has a use the recency list has not taken in (DeviceCache), else 0.
type cacheSlot struct {
	key        uint64
	state      uint8
	width      Width
	bytes      int32
	prev, next int32
}

// lruUsed is an LRU slot's state while it has a deferred use.
const lruUsed = 1

// DeviceCache is one node's bounded hot-entry cache: a byte budget of row
// entries with LRU or SRRIP eviction. Entries are variable-width — hot rows
// at fp32, warm rows at a narrow width (Width) — so the capacity is
// denominated in HBM bytes end-to-end, matching how placement reasons
// (NewCapacityWeightedHBM). It stores identifiers, widths and footprints
// only — the simulated payload derives from the shard storage through the
// fused dequantize-gather kernel. It keeps no event counters: Lookup and
// Insert return what happened, and the Service counts each hit, miss and
// eviction once, in Stats. The zero-budget cache is valid and misses every
// probe.
//
// Keys are the service's (table << 32 | row) packing, and the key → slot
// index is dense: one []int32 per table, indexed by row, holding the slot
// plus one (zero = absent). A probe is two array loads instead of a hash
// probe. The Service sizes each table's index once, when the table registers
// (SizeTable), and nothing grows it after that: the Service's walks admit
// only rows of registered tables, which lie inside their index.
//
// LRU is exact, and only an eviction reads its order, so a cache that is not
// evicting defers its uses: a use — a hit, a same-width refresh, an
// admission — marks the slot (lruUsed) and appends it to a fixed batch
// instead of relinking the recency list. A flush, when the batch fills
// and before an eviction, walks the batch newest first and moves each marked
// slot to the front once, at its last use, clearing its mark: the list is
// then what moving every use at once would have made it. A row hit many
// times between flushes moves once, and a hit costs an index load, a mark
// and an append. A cache that evicts reads its list at every admission, and
// there the batch's second pass costs more than the moves it merges, so an
// eviction also switches the cache to moving each use at once, until
// lruBatch uses pass without one. Memory stays flat: the batch, and the mark
// takes the state byte SRRIP keeps its prediction in. SRRIP keeps no list and
// defers nothing.
type DeviceCache struct {
	policy    Policy
	capBytes  int64
	usedBytes int64
	index     [][]int32 // index[table][row] = slot + 1; 0 = absent
	slots     []cacheSlot
	freeSlots []int32 // recycled slot indices (holes in slots)
	// LRU recency list endpoints (slot indices, -1 when empty).
	head, tail int32
	// batch[:nBatch] are the LRU uses since the last flush, oldest first (a
	// slot again at each use). Its length is lruBatch while the cache defers
	// and 0 while it moves uses at once; it is nil for SRRIP.
	batch  []int32
	nBatch int
	// quiet counts an undeferred LRU cache's uses since its last eviction.
	quiet int
	// used is the number of live entries.
	used int
	// hand is the SRRIP CLOCK pointer (an index into slots; sweeps skip
	// dead slots).
	hand int32
}

// NewDeviceCache returns a cache with a budget of capBytes of row storage.
func NewDeviceCache(capBytes int64, policy Policy) *DeviceCache {
	if capBytes < 0 {
		panic(fmt.Sprintf("shard: negative cache capacity %d bytes", capBytes))
	}
	c := &DeviceCache{policy: policy, capBytes: capBytes, head: -1, tail: -1}
	if policy == PolicyLRU && capBytes > 0 {
		c.batch = make([]int32, lruBatch)
	}
	return c
}

// SizeTable sizes one table's index for rows rows, so no probe or admission
// of that table ever grows it. A zero-budget cache admits nothing and keeps
// no index.
func (c *DeviceCache) SizeTable(table, rows int) {
	if c.capBytes == 0 {
		return
	}
	for table >= len(c.index) {
		c.index = append(c.index, nil)
	}
	if rows > len(c.index[table]) {
		ix := make([]int32, rows) // exact: append would round up to a size class
		copy(ix, c.index[table])
		c.index[table] = ix
	}
}

// slotOf returns the slot holding key, or -1.
//
//hotline:hotpath
func (c *DeviceCache) slotOf(key uint64) int32 {
	if t := key >> 32; t < uint64(len(c.index)) {
		if ix := c.index[t]; uint64(uint32(key)) < uint64(len(ix)) {
			return ix[uint32(key)] - 1
		}
	}
	return -1
}

// setSlot points key at slot i (-1 removes it). The key's table must be
// sized (SizeTable) to span its row.
//
//hotline:hotpath
func (c *DeviceCache) setSlot(key uint64, i int32) {
	c.index[key>>32][uint32(key)] = i + 1
}

// tableIndex returns table's slot index (slot plus one per row; nil for a
// zero-budget cache, which admits nothing): the walks probe it inline.
//
//hotline:hotpath
func (c *DeviceCache) tableIndex(table int) []int32 {
	if table < len(c.index) {
		return c.index[table]
	}
	return nil
}

// CapacityBytes returns the byte budget.
func (c *DeviceCache) CapacityBytes() int64 { return c.capBytes }

// UsedBytes returns the bytes currently held by live entries.
func (c *DeviceCache) UsedBytes() int64 { return c.usedBytes }

// Len returns the number of cached entries.
func (c *DeviceCache) Len() int { return c.used }

// Occupancy returns UsedBytes/CapacityBytes (0 for a zero-budget cache) —
// the byte-denominated fill fraction, identical in meaning whatever mix of
// entry widths the budget holds.
func (c *DeviceCache) Occupancy() float64 {
	if c.capBytes == 0 {
		return 0
	}
	return float64(c.usedBytes) / float64(c.capBytes)
}

// Contains probes without touching replacement state or counters.
//
//hotline:hotpath
func (c *DeviceCache) Contains(key uint64) bool { return c.slotOf(key) >= 0 }

// Lookup probes the cache, updates replacement state, and reports whether
// key hit and the hit entry's storage width. It never admits: admission is a
// separate policy decision made by the Service (the popularity classifier
// picks the tier).
//
//hotline:hotpath
func (c *DeviceCache) Lookup(key uint64) (Width, bool) {
	i := c.slotOf(key)
	if i < 0 {
		return WidthFP32, false
	}
	c.use(i)
	return c.slots[i].width, true
}

// use records a use of live slot i: SRRIP marks it near re-reference; LRU
// defers it (mark) or moves the slot to the list's front at once.
//
//hotline:hotpath
func (c *DeviceCache) use(i int32) {
	if !c.mark(i) {
		c.useSlow(i)
	}
}

// mark is use's common case, small enough to inline: an LRU use deferred
// into a batch with room. It reports false, doing nothing, on a full batch,
// an LRU cache that does not defer, or an SRRIP cache, where the caller calls
// useSlow.
//
//hotline:hotpath
func (c *DeviceCache) mark(i int32) bool {
	n := c.nBatch
	if n >= len(c.batch) {
		return false
	}
	c.batch[n] = i
	c.nBatch = n + 1
	c.slots[i].state = lruUsed
	return true
}

// useSlow is use past mark: SRRIP's use, a full batch's flush, or an LRU
// cache that moves uses at once moving slot i to the list's front.
//
//hotline:hotpath
func (c *DeviceCache) useSlow(i int32) {
	if c.policy == PolicySRRIP {
		c.slots[i].state = 0
		return
	}
	if len(c.batch) > 0 { // the batch is full
		c.flush()
		c.mark(i)
		return
	}
	if c.quiet++; c.quiet == lruBatch {
		c.batch = c.batch[:lruBatch]
	}
	if c.head == i {
		return
	}
	if c.slots[i].prev != detached {
		c.unlink(i)
	}
	c.slots[i].prev, c.slots[i].next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Insert admits key as an entry of `bytes` bytes stored at width, evicting
// per the policy until it fits — a wide fp32 admission may displace several
// narrow warm-tier entries. Inserting a present key at its current width
// only refreshes its replacement state; at a different width it is
// re-admitted (the old entry is dropped uncounted, the fresh one may evict).
// Returns whether the key was admitted (false only when it cannot fit the
// whole budget) and how many evictions the admission caused.
//
//hotline:hotpath
func (c *DeviceCache) Insert(key uint64, width Width, bytes int64) (admitted bool, evictions int) {
	if c.capBytes == 0 || bytes <= 0 || bytes > c.capBytes {
		return false, 0
	}
	if i := c.slotOf(key); i >= 0 {
		if c.slots[i].width == width {
			c.use(i)
			return true, 0
		}
		// Width change (e.g. a reclassified row moving tiers): drop the old
		// entry silently and fall through to a fresh admission.
		c.removeSlot(i)
	}
	return c.admit(key, width, bytes)
}

// admit is Insert for a key the cache does not hold: it evicts until the
// entry fits, then admits it. The Service's walk calls it on a miss.
//
//hotline:hotpath
func (c *DeviceCache) admit(key uint64, width Width, bytes int64) (admitted bool, evictions int) {
	if c.capBytes == 0 || bytes <= 0 || bytes > c.capBytes {
		return false, 0
	}
	if c.usedBytes+bytes > c.capBytes {
		c.quiet = 0
		if len(c.batch) > 0 {
			// An eviction reads the recency list: fold the deferred uses in
			// and move the next ones at once.
			c.flush()
			c.batch = c.batch[:0]
		}
		for c.usedBytes+bytes > c.capBytes && c.used > 0 {
			c.removeSlot(c.victim())
			evictions++
		}
	}
	i := c.allocSlot() // zeroed
	// Field by field: a composite literal is built on the stack in narrow
	// stores and copied out in wide loads, which stall on store forwarding.
	s := &c.slots[i]
	s.key, s.width, s.bytes = key, width, int32(bytes)
	s.prev, s.next = detached, detached
	c.setSlot(key, i)
	if c.policy == PolicySRRIP {
		s.state = cacheRRPVMax - 1 // SRRIP admits at long re-reference
	} else if !c.mark(i) { // an LRU admission is a use
		c.useSlow(i)
	}
	c.usedBytes += bytes
	c.used++
	return true, evictions
}

// allocSlot hands out a slot index, recycling holes before growing.
//
//hotline:hotpath
func (c *DeviceCache) allocSlot() int32 {
	if n := len(c.freeSlots); n > 0 {
		i := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return i
	}
	c.slots = append(c.slots, cacheSlot{}) //hotline:allow hotalloc slot table grows once to the entry high-water mark, then recycles holes
	return int32(len(c.slots) - 1)
}

// removeSlot unlinks and recycles one live slot (no eviction accounting).
//
//hotline:hotpath
func (c *DeviceCache) removeSlot(i int32) {
	c.setSlot(c.slots[i].key, -1)
	if c.slots[i].prev != detached {
		c.unlink(i)
	}
	c.usedBytes -= int64(c.slots[i].bytes)
	c.slots[i] = cacheSlot{}             // bytes == 0 marks the slot dead, and it is unmarked
	c.freeSlots = append(c.freeSlots, i) //hotline:allow hotalloc free list is bounded by the widest/narrowest entry ratio and recycles
	c.used--
}

// victim selects the slot to evict. LRU takes the recency-list tail (admit
// has flushed the deferred uses); SRRIP sweeps the CLOCK hand for a distant
// (state == cacheRRPVMax) entry, aging entries it passes — the amortised-O(1)
// equivalent of SRRIP's "age all, rescan" loop.
// Callers guarantee at least one live entry. Dead slots (recycled holes) are
// skipped without aging.
//
//hotline:hotpath
func (c *DeviceCache) victim() int32 {
	if c.policy == PolicyLRU {
		return c.tail
	}
	for {
		i := c.hand
		c.hand++
		if int(c.hand) >= len(c.slots) {
			c.hand = 0
		}
		if c.slots[i].bytes == 0 {
			continue
		}
		if c.slots[i].state >= cacheRRPVMax {
			return i
		}
		c.slots[i].state++
	}
}

// Reset drops all contents. The index and slot arrays are retained: the
// live entries' index cells are zeroed in place (work proportional to the
// contents, not to the tables), so reset-heavy measurement loops stay
// allocation-free — TestDeviceCacheResetZeroAlloc gates this.
//
//hotline:hotpath
func (c *DeviceCache) Reset() {
	for i := range c.slots {
		if c.slots[i].bytes != 0 {
			c.setSlot(c.slots[i].key, -1)
		}
	}
	c.slots = c.slots[:0]
	c.freeSlots = c.freeSlots[:0]
	c.head, c.tail, c.used, c.hand = -1, -1, 0, 0
	c.usedBytes = 0
	if c.batch != nil {
		c.batch, c.nBatch = c.batch[:lruBatch], 0
	}
}

// --- intrusive LRU recency list ------------------------------------------

// flush folds the deferred uses into the recency list: the batch is walked
// newest first, and each slot still marked there — at its last use — is
// unmarked, unlinked when it is on the list, and chained after the slots
// placed before it; the chain, newest first, then becomes the list's front.
//
//hotline:hotpath
func (c *DeviceCache) flush() {
	first, last := int32(-1), int32(-1)
	for j := c.nBatch - 1; j >= 0; j-- {
		i := c.batch[j]
		s := &c.slots[i]
		if s.state != lruUsed {
			continue
		}
		s.state = 0
		if s.prev != detached {
			c.unlink(i)
		}
		s.prev = last
		if last < 0 {
			first = i
		} else {
			c.slots[last].next = i
		}
		last = i
	}
	c.nBatch = 0
	if last < 0 {
		return
	}
	c.slots[last].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = last
	} else {
		c.tail = last
	}
	c.head = first
}

// unlink takes live slot i off the recency list.
//
//hotline:hotpath
func (c *DeviceCache) unlink(i int32) {
	p, n := c.slots[i].prev, c.slots[i].next
	if p >= 0 {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
	c.slots[i].prev, c.slots[i].next = detached, detached
}
