package accel

import (
	"fmt"
	"sort"
)

// ReplacementPolicy selects the EAL's eviction policy. The paper uses
// SRRIP; FIFO is the ablation comparator (cheaper but scan-vulnerable).
type ReplacementPolicy uint8

const (
	// PolicySRRIP is the paper's 2-bit RRPV static re-reference policy.
	PolicySRRIP ReplacementPolicy = iota
	// PolicyFIFO evicts in insertion order, ignoring re-references.
	PolicyFIFO
)

// EALConfig sizes the Embedding Access Logger.
type EALConfig struct {
	// SizeBytes is the SRAM capacity (paper default 4 MB).
	SizeBytes int64
	// Banks is the number of independently ported banks (default 64).
	Banks int
	// Ways is the set associativity of each bank.
	Ways int
	// BytesPerEntry models the 17-bit entry (valid + 2-bit RRPV + 14-bit
	// identifier) padded to storage granularity; the paper's 4 MB / 2M
	// blocks gives 2 bytes.
	BytesPerEntry int64
	// Seed keys the Feistel randomizer.
	Seed uint32
	// Policy selects the replacement policy (default SRRIP).
	Policy ReplacementPolicy
	// NoRandomizer disables the Feistel network and indexes banks/sets by
	// the raw (table, row) bits — the thrashing ablation of §V-C.
	NoRandomizer bool
}

// DefaultEALConfig is the paper's Table IV configuration.
func DefaultEALConfig() EALConfig {
	return EALConfig{SizeBytes: 4 << 20, Banks: 64, Ways: 8, BytesPerEntry: 2, Seed: 0x40714E}
}

// Entries returns the total tracked-entry capacity.
func (c EALConfig) Entries() int { return int(c.SizeBytes / c.BytesPerEntry) }

const rrpvMax = 3 // 2-bit RRPV

// ealEntry is one SRAM block.
type ealEntry struct {
	valid bool
	rrpv  uint8
	tag   uint32 // scattered key (models the 14-bit identifier + set index)
}

// EAL is the Embedding Access Logger: a cache-like structure that tracks
// frequently-accessed embedding identifiers with SRRIP replacement
// (2-bit RRPV, insertion at rrpvMax-1, promotion to 0 on hit). Entries hold
// only identifiers — never embedding data — which is how 4 MB of SRAM can
// track the hot set of multi-GB tables.
type EAL struct {
	Cfg      EALConfig
	feistel  *Feistel
	sets     int // sets per bank
	entries  []ealEntry
	fifoNext []uint8 // per-set round-robin pointer (PolicyFIFO)

	// pow2 is set when banks and sets are both powers of two (the paper
	// configuration): locate then uses masks and shifts instead of the two
	// integer divisions, which dominate the classification probe.
	pow2      bool
	bankMask  uint32
	bankShift uint32
	setMask   uint32

	// gen counts the changes to what Contains answers: every insert and
	// Reset advance it, a Touch hit (which moves only an RRPV) does not.
	gen uint64

	// statistics
	Hits, Misses, Inserts, Evicts int64
}

// NewEAL builds the logger.
func NewEAL(cfg EALConfig) *EAL {
	total := cfg.Entries()
	perBank := total / cfg.Banks
	sets := perBank / cfg.Ways
	if sets < 1 {
		panic(fmt.Sprintf("accel: EAL too small: %d entries over %d banks x %d ways", total, cfg.Banks, cfg.Ways))
	}
	e := &EAL{
		Cfg:      cfg,
		feistel:  NewFeistel(cfg.Seed),
		sets:     sets,
		entries:  make([]ealEntry, cfg.Banks*sets*cfg.Ways),
		fifoNext: make([]uint8, cfg.Banks*sets),
	}
	if isPow2(cfg.Banks) && isPow2(sets) {
		e.pow2 = true
		e.bankMask = uint32(cfg.Banks - 1)
		e.setMask = uint32(sets - 1)
		for 1<<e.bankShift < cfg.Banks {
			e.bankShift++
		}
	}
	return e
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Capacity returns the number of identifiers the EAL can track.
func (e *EAL) Capacity() int { return e.Cfg.Banks * e.sets * e.Cfg.Ways }

// locate returns the bank, set and tag for a (table, row) key.
//
//hotline:hotpath
func (e *EAL) locate(table int, row int32) (bank, set int, tag uint32) {
	var h uint32
	if e.Cfg.NoRandomizer {
		// Raw indexing: hot heads of every table share the same low index
		// bits, so they collide into the same banks and sets (the
		// thrashing the Feistel network exists to prevent).
		h = uint32(row)
		tag = uint32(table)<<26 ^ uint32(row)
	} else {
		h = e.feistel.HashKey(table, row)
		tag = h
	}
	if e.pow2 {
		// Same bank/set mapping as the division form below, via masks.
		bank = int(h & e.bankMask)
		set = int((h >> e.bankShift) & e.setMask)
		return
	}
	bank = int(h % uint32(e.Cfg.Banks))
	set = int((h / uint32(e.Cfg.Banks)) % uint32(e.sets))
	return
}

//hotline:hotpath
func (e *EAL) setSlice(bank, set int) []ealEntry {
	base := (bank*e.sets + set) * e.Cfg.Ways
	return e.entries[base : base+e.Cfg.Ways]
}

// Bank returns which bank services the key (used by the conflict model).
func (e *EAL) Bank(table int, row int32) int {
	b, _, _ := e.locate(table, row)
	return b
}

// Contains is the acceleration-phase classification probe: a read-only
// check that does not disturb replacement state.
//
//hotline:hotpath
func (e *EAL) Contains(table int, row int32) bool {
	bank, set, tag := e.locate(table, row)
	for _, ent := range e.setSlice(bank, set) {
		// Tags are Feistel-scattered, so the tag compare almost always
		// fails first; checking it before the valid bit short-circuits the
		// common miss.
		if ent.tag == tag && ent.valid {
			return true
		}
	}
	return false
}

// Touch is the learning-phase access: on hit the entry's RRPV promotes to 0
// (near re-reference); on miss the key is inserted at rrpvMax-1, evicting a
// distant (rrpv==max) victim per SRRIP. Returns whether it was a hit.
//
//hotline:hotpath
func (e *EAL) Touch(table int, row int32) bool {
	bank, set, tag := e.locate(table, row)
	ways := e.setSlice(bank, set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].rrpv = 0
			e.Hits++
			return true
		}
	}
	e.Misses++
	e.insert(bank*e.sets+set, ways, tag)
	return false
}

// insert places tag per the configured policy. SRRIP: find an invalid way
// or an rrpv==max victim, aging the set until one appears. FIFO: evict in
// round-robin insertion order.
//
//hotline:hotpath
func (e *EAL) insert(setIdx int, ways []ealEntry, tag uint32) {
	e.gen++
	for i := range ways {
		if !ways[i].valid {
			ways[i] = ealEntry{valid: true, rrpv: rrpvMax - 1, tag: tag}
			e.Inserts++
			return
		}
	}
	if e.Cfg.Policy == PolicyFIFO {
		i := int(e.fifoNext[setIdx]) % len(ways)
		e.fifoNext[setIdx]++
		ways[i] = ealEntry{valid: true, rrpv: rrpvMax - 1, tag: tag}
		e.Inserts++
		e.Evicts++
		return
	}
	for {
		for i := range ways {
			if ways[i].rrpv == rrpvMax {
				ways[i] = ealEntry{valid: true, rrpv: rrpvMax - 1, tag: tag}
				e.Inserts++
				e.Evicts++
				return
			}
		}
		for i := range ways {
			ways[i].rrpv++
		}
	}
}

// Occupancy returns the fraction of valid entries.
func (e *EAL) Occupancy() float64 {
	n := 0
	for _, ent := range e.entries {
		if ent.valid {
			n++
		}
	}
	return float64(n) / float64(len(e.entries))
}

// Reset clears contents and statistics (a fresh learning phase).
func (e *EAL) Reset() {
	e.gen++
	for i := range e.entries {
		e.entries[i] = ealEntry{}
	}
	for i := range e.fifoNext {
		e.fifoNext[i] = 0
	}
	e.Hits, e.Misses, e.Inserts, e.Evicts = 0, 0, 0, 0
}

// HitRate returns hits/(hits+misses) over Touch calls so far.
func (e *EAL) HitRate() float64 {
	t := e.Hits + e.Misses
	if t == 0 {
		return 0
	}
	return float64(e.Hits) / float64(t)
}

// OracleLFU is the idealised comparator of Figure 15: it keeps exact access
// counts for every identifier (which hardware cannot afford — a 24-bit
// counter per block) and marks the top-capacity identifiers as tracked.
type OracleLFU struct {
	Capacity int
	counts   map[uint64]int64
}

// NewOracleLFU returns an oracle tracker with the same identifier capacity
// as an EAL.
func NewOracleLFU(capacity int) *OracleLFU {
	return &OracleLFU{Capacity: capacity, counts: make(map[uint64]int64)}
}

func oracleKey(table int, row int32) uint64 {
	return uint64(table)<<32 | uint64(uint32(row))
}

// Touch records an access.
func (o *OracleLFU) Touch(table int, row int32) { o.counts[oracleKey(table, row)]++ }

// TrackedSet returns the identifiers an ideal LFU of this capacity would
// hold: the top-Capacity by exact count.
func (o *OracleLFU) TrackedSet() map[uint64]struct{} {
	all := make([]keyCount, 0, len(o.counts))
	for k, c := range o.counts {
		all = append(all, keyCount{k, c})
	}
	// Simple sort is fine at model scale; ties break on key for determinism.
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].k < all[j].k
	})
	n := o.Capacity
	if n > len(all) {
		n = len(all)
	}
	out := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		out[all[i].k] = struct{}{}
	}
	return out
}

// Contains reports whether the oracle's tracked set holds the key.
// (Computed lazily from counts; use TrackedSet for bulk queries.)
func (o *OracleLFU) Contains(table int, row int32) bool {
	_, ok := o.TrackedSet()[oracleKey(table, row)]
	return ok
}

// keyCount pairs an identifier with its exact access count.
type keyCount struct {
	k uint64
	c int64
}
