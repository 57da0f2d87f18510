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

// cacheSlot is one cached row's metadata. Slots form both the SRRIP ring
// and the LRU recency list (prev/next are slot indices; 32 bits hold any slot
// count a byte budget can reach, and the narrower links pay for most of the
// dense index's bytes). A dead (recycled) slot is marked by bytes == 0 — every
// live entry occupies at least one byte — so the CLOCK sweep can skip holes
// left by multi-entry evictions.
type cacheSlot struct {
	key        uint64
	rrpv       uint8
	width      Width
	bytes      int32
	prev, next int32
}

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
type DeviceCache struct {
	policy    Policy
	capBytes  int64
	usedBytes int64
	index     [][]int32 // index[table][row] = slot + 1; 0 = absent
	slots     []cacheSlot
	freeSlots []int32 // recycled slot indices (holes in slots)
	// LRU recency list endpoints (slot indices, -1 when empty).
	head, tail int32
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
	return &DeviceCache{policy: policy, capBytes: capBytes, head: -1, tail: -1}
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
	w := c.slots[i].width
	if c.policy == PolicySRRIP {
		c.slots[i].rrpv = 0 // near re-reference
	} else {
		c.moveToFront(i)
	}
	return w, true
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
			if c.policy == PolicySRRIP {
				c.slots[i].rrpv = 0
			} else {
				c.moveToFront(i)
			}
			return true, 0
		}
		// Width change (e.g. a reclassified row moving tiers): drop the old
		// entry silently and fall through to a fresh admission.
		c.removeSlot(i)
	}
	for c.usedBytes+bytes > c.capBytes && c.used > 0 {
		v := c.victim()
		c.removeSlot(v)
		evictions++
	}
	i := c.allocSlot()
	c.slots[i] = cacheSlot{key: key, rrpv: cacheRRPVMax - 1, width: width, bytes: int32(bytes), prev: -1, next: -1}
	c.setSlot(key, i)
	c.pushFront(i)
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
	c.unlink(i)
	c.usedBytes -= int64(c.slots[i].bytes)
	c.slots[i] = cacheSlot{}             // bytes == 0 marks the slot dead
	c.freeSlots = append(c.freeSlots, i) //hotline:allow hotalloc free list is bounded by the widest/narrowest entry ratio and recycles
	c.used--
}

// victim selects the slot to evict. LRU takes the recency-list tail; SRRIP
// sweeps the CLOCK hand for a distant (rrpv==max) entry, aging entries it
// passes — the amortised-O(1) equivalent of SRRIP's "age all, rescan" loop.
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
		if c.slots[i].rrpv >= cacheRRPVMax {
			return i
		}
		c.slots[i].rrpv++
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
}

// --- intrusive LRU recency list ------------------------------------------

//hotline:hotpath
func (c *DeviceCache) pushFront(i int32) {
	c.slots[i].prev = -1
	c.slots[i].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

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
	c.slots[i].prev, c.slots[i].next = -1, -1
}

//hotline:hotpath
func (c *DeviceCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
