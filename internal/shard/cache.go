package shard

// cacheSlot is one cached row's metadata. A recycled slot is zeroed, so a
// slot of zero bytes is free.
type cacheSlot struct {
	key   uint64
	width Width
	bytes int32
}

// DeviceCache is one node's bounded hot-entry cache: a byte budget of row
// entries that admits into free bytes only. An admission that does not fit is
// refused — the row is still fetched and staged at its tier's width, but not
// cached — and nothing is evicted row by row: an entry leaves only when the
// learned hot set changes its hot bit (Service.Relearn), as HBM holds the
// popular set the learning phase picked until it re-samples. A hit is then the
// index load alone. Entries are variable-width — hot rows at fp32, warm rows
// at a narrow width (Width) — so the capacity is denominated in HBM bytes
// end-to-end, matching how placement reasons (NewCapacityWeightedHBM). It
// stores identifiers, widths and footprints only — the simulated payload
// derives from the shard storage through the fused dequantize-gather kernel.
// It keeps no event counters: admit reports what happened, and the Service
// counts each hit, miss, fill and removal once, in Stats. The zero-budget
// cache is valid and misses every probe.
//
// Keys are the service's (table << 32 | row) packing, and the key → slot
// index is dense: one []int32 per table, indexed by row, holding the slot
// plus one (zero = absent). A probe is two array loads instead of a hash
// probe. The Service sizes each table's index once, when the table registers
// (SizeTable), and nothing grows it after that: the Service's walks admit
// only rows of registered tables, which lie inside their index.
type DeviceCache struct {
	capBytes  int64
	usedBytes int64
	index     [][]int32 // index[table][row] = slot + 1; 0 = absent
	slots     []cacheSlot
	freeSlots []int32 // recycled slot indices (holes in slots)
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

// Len returns the number of cached entries.
func (c *DeviceCache) Len() int { return len(c.slots) - len(c.freeSlots) }

// Occupancy returns the bytes live entries hold over CapacityBytes (0 for a
// zero-budget cache) — the byte-denominated fill fraction, identical in
// meaning whatever mix of entry widths the budget holds.
func (c *DeviceCache) Occupancy() float64 {
	if c.capBytes == 0 {
		return 0
	}
	return float64(c.usedBytes) / float64(c.capBytes)
}

// Contains probes without touching counters.
//
//hotline:hotpath
func (c *DeviceCache) Contains(key uint64) bool { return c.slotOf(key) >= 0 }

// admit caches key, which the cache does not hold, as an entry of bytes
// bytes stored at width when the entry fits the free bytes, and reports
// whether it did. An entry that does not fit is refused, and nothing leaves
// to make room. The Service's walk calls it on a miss, and Relearn for each
// row the new hot set brings in.
//
//hotline:hotpath
func (c *DeviceCache) admit(key uint64, width Width, bytes int64) bool {
	if bytes <= 0 || c.usedBytes+bytes > c.capBytes {
		return false
	}
	i := c.allocSlot() // zeroed
	// Field by field: a composite literal is built on the stack in narrow
	// stores and copied out in wide loads, which stall on store forwarding.
	s := &c.slots[i]
	s.key, s.width, s.bytes = key, width, int32(bytes)
	c.setSlot(key, i)
	c.usedBytes += bytes
	return true
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

// removeSlot recycles one live slot (Relearn counts the removal).
func (c *DeviceCache) removeSlot(i int32) {
	c.setSlot(c.slots[i].key, -1)
	c.usedBytes -= int64(c.slots[i].bytes)
	c.slots[i] = cacheSlot{}
	c.freeSlots = append(c.freeSlots, i)
}
