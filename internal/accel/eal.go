package accel

import (
	"fmt"
	"math/bits"
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
	// Ways is the set associativity of each bank (at most 8).
	Ways int
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
	return EALConfig{SizeBytes: 4 << 20, Banks: 64, Ways: 8, Seed: 0x40714E}
}

// entryBytes is the SRAM an entry costs: one 16-bit identifier lane (the
// paper's 4 MB / 2M blocks). The 2-bit RRPVs live beside the lanes, one
// word per set, and are not counted against SizeBytes.
const entryBytes = 2

// Entries returns the total tracked-entry capacity.
func (c EALConfig) Entries() int { return int(c.SizeBytes / entryBytes) }

const (
	rrpvMax = 3 // 2-bit RRPV
	maxWays = 8 // the RRPV fields of one set fill a uint16
)

// EAL is the Embedding Access Logger: a cache-like structure that tracks
// frequently-accessed embedding identifiers with SRRIP replacement
// (2-bit RRPV, insertion at rrpvMax-1, promotion to 0 on hit). Entries hold
// only identifiers — never embedding data — which is how 4 MB of SRAM can
// track the hot set of multi-GB tables.
//
// A key's bank and set fix it modulo Banks·sets (its low 18 bits at Table
// IV), so a way stores only the rest, the identifier q = key / (Banks·sets):
// 14 bits at Table IV.
type EAL struct {
	Cfg     EALConfig
	feistel *Feistel
	sets    int // sets per bank

	// lo holds each way's q+1, Ways lanes per set in set order; 0 marks an
	// invalid way. hi holds the high 16 bits of q+1 and is nil when q+1
	// always fits 16 bits (Table IV); smaller geometries need it to stay
	// exact.
	lo, hi []uint16
	// meta is one word per set. Under SRRIP it holds way i's RRPV in bits
	// 2i and 2i+1; under FIFO its low byte is the set's insertion counter.
	meta []uint16
	// ones has a 1 in the low bit of every way's RRPV field: adding it ages
	// the whole set by one step.
	ones uint16
	// rawSpan is the identifier range one table covers in NoRandomizer
	// mode, ceil(2^26 / (Banks·sets)): q = table·rawSpan + row/(Banks·sets)
	// separates every (table < 64, row < 2^26) key that shares a set.
	rawSpan uint32

	// pow2 is set when banks and sets are both powers of two (the paper
	// configuration): locate then uses masks and shifts instead of the two
	// integer divisions, which dominate the classification probe.
	pow2      bool
	bankMask  uint32
	bankShift uint32
	setMask   uint32
	idShift   uint32 // log2(Banks·sets)

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
	// Two sets over all banks at least: q+1 then fits 32 bits for every key.
	if sets < 1 || cfg.Banks*sets < 2 {
		panic(fmt.Sprintf("accel: EAL too small: %d entries over %d banks x %d ways", total, cfg.Banks, cfg.Ways))
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("accel: EAL too wide: %d ways, at most %d", cfg.Ways, maxWays))
	}
	// The largest q+1 a key in the domain HashKey assumes (table < 64,
	// 0 <= row < 2^26) can need: more than 16 bits takes the hi lanes.
	span := uint64(cfg.Banks * sets)
	rawSpan := (1<<26 + span - 1) / span
	maxID := (1<<32-1)/span + 1
	if cfg.NoRandomizer {
		maxID = 64 * rawSpan
	}
	n := cfg.Banks * sets * cfg.Ways
	e := &EAL{
		Cfg:     cfg,
		feistel: NewFeistel(cfg.Seed),
		sets:    sets,
		lo:      make([]uint16, n),
		meta:    make([]uint16, cfg.Banks*sets),
		ones:    0x5555 >> (16 - 2*cfg.Ways),
		rawSpan: uint32(rawSpan),
	}
	if maxID > 0xFFFF {
		e.hi = make([]uint16, n)
	}
	if isPow2(cfg.Banks) && isPow2(sets) {
		e.pow2 = true
		e.bankMask = uint32(cfg.Banks - 1)
		e.setMask = uint32(sets - 1)
		e.bankShift = uint32(bits.TrailingZeros(uint(cfg.Banks)))
		e.idShift = uint32(bits.TrailingZeros64(span))
	}
	return e
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Capacity returns the number of identifiers the EAL can track.
func (e *EAL) Capacity() int { return e.Cfg.Banks * e.sets * e.Cfg.Ways }

// locate returns the bank, the set within it and the stored identifier
// (q+1, never 0) for a (table, row) key.
//
//hotline:hotpath
func (e *EAL) locate(table int, row int32) (bank, set int, id uint32) {
	var h uint32
	if e.Cfg.NoRandomizer {
		// Raw indexing: hot heads of every table share the same low index
		// bits, so they collide into the same banks and sets (the
		// thrashing the Feistel network exists to prevent).
		h = uint32(row)
	} else {
		h = e.feistel.HashKey(table, row)
	}
	var q uint32
	if e.pow2 {
		// Same mapping as the division form below, via masks.
		bank = int(h & e.bankMask)
		set = int((h >> e.bankShift) & e.setMask)
		q = h >> e.idShift
	} else {
		hb := h / uint32(e.Cfg.Banks)
		q = hb / uint32(e.sets)
		bank = int(h - hb*uint32(e.Cfg.Banks))
		set = int(hb - q*uint32(e.sets))
	}
	if e.Cfg.NoRandomizer {
		q += uint32(table) * e.rawSpan
	}
	return bank, set, q + 1
}

// find returns the way of set s that holds id, or -1.
//
//hotline:hotpath
func (e *EAL) find(s int, id uint32) int {
	base := s * e.Cfg.Ways
	lanes := e.lo[base : base+e.Cfg.Ways]
	lo := uint16(id)
	for i, l := range lanes {
		// An invalid lane reads 0 and id is never 0, so the lane compare
		// alone rejects it when hi is nil; with hi, (0, 0) never equals id.
		if l == lo && (e.hi == nil || e.hi[base+i] == uint16(id>>16)) {
			return i
		}
	}
	return -1
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
	bank, set, id := e.locate(table, row)
	return e.find(bank*e.sets+set, id) >= 0
}

// Touch is the learning-phase access: on hit the entry's RRPV promotes to 0
// (near re-reference); on miss the key is inserted at rrpvMax-1, evicting a
// distant (rrpv==max) victim per SRRIP. Returns whether it was a hit.
//
//hotline:hotpath
func (e *EAL) Touch(table int, row int32) bool {
	bank, set, id := e.locate(table, row)
	s := bank*e.sets + set
	if i := e.find(s, id); i >= 0 {
		if e.Cfg.Policy == PolicySRRIP { // FIFO's meta word is its counter
			e.meta[s] &^= rrpvMax << (2 * i)
		}
		e.Hits++
		return true
	}
	e.Misses++
	e.insert(s, id)
	return false
}

// insert places id in set s per the configured policy: the lowest invalid
// way if there is one, else the victim evict picks.
//
//hotline:hotpath
func (e *EAL) insert(s int, id uint32) {
	e.gen++
	e.Inserts++
	base := s * e.Cfg.Ways
	i := 0
	for i < e.Cfg.Ways && e.valid(base+i) {
		i++
	}
	if i == e.Cfg.Ways {
		e.Evicts++
		i = e.evict(s)
	} else if e.Cfg.Policy == PolicySRRIP {
		e.meta[s] = e.meta[s]&^(rrpvMax<<(2*i)) | (rrpvMax-1)<<(2*i)
	}
	e.lo[base+i] = uint16(id)
	if e.hi != nil {
		e.hi[base+i] = uint16(id >> 16)
	}
}

// evict picks the way of full set s to replace. FIFO: round-robin in
// insertion order, counted in 8 bits (a Ways that does not divide 256
// restarts at way 0 when the count wraps). SRRIP: the lowest way at rrpvMax, aging the set until
// one appears (no field is at rrpvMax while it ages, so none carries); the
// victim's field drops to rrpvMax-1, the insertion RRPV.
//
//hotline:hotpath
func (e *EAL) evict(s int) int {
	m := e.meta[s]
	if e.Cfg.Policy == PolicyFIFO {
		next := uint8(m)
		e.meta[s] = uint16(next + 1)
		return int(next) % e.Cfg.Ways
	}
	for m&(m>>1)&e.ones == 0 {
		m += e.ones
	}
	i := bits.TrailingZeros16(m&(m>>1)&e.ones) / 2
	e.meta[s] = m - 1<<(2*i)
	return i
}

// valid reports whether lane j holds an identifier.
//
//hotline:hotpath
func (e *EAL) valid(j int) bool {
	return e.lo[j] != 0 || e.hi != nil && e.hi[j] != 0
}

// Occupancy returns the fraction of valid entries.
func (e *EAL) Occupancy() float64 {
	n := 0
	for j := range e.lo {
		if e.valid(j) {
			n++
		}
	}
	return float64(n) / float64(len(e.lo))
}

// Reset clears contents and statistics (a fresh learning phase).
func (e *EAL) Reset() {
	e.gen++
	clear(e.lo)
	clear(e.hi)
	clear(e.meta)
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
