package accel

// refEAL is the EAL as it stood before the identifier lanes: one 8-byte
// entry per way holding a valid bit, an RRPV byte and the whole 32-bit tag.
// It is the oracle TestEALMatchesReference replays the packed EAL against,
// kept as simple as the hardware description: a linear scan per probe, one
// aging pass over the set per round.
type refEAL struct {
	cfg      EALConfig
	feistel  *Feistel
	sets     int
	entries  []ealEntry
	fifoNext []uint8

	Hits, Misses, Inserts, Evicts int64
}

// ealEntry is one SRAM block of the reference.
type ealEntry struct {
	valid bool
	rrpv  uint8
	tag   uint32 // scattered key (Feistel) or table<<26 ^ row (raw)
}

func newRefEAL(cfg EALConfig) *refEAL {
	sets := cfg.Entries() / cfg.Banks / cfg.Ways
	return &refEAL{
		cfg:      cfg,
		feistel:  NewFeistel(cfg.Seed),
		sets:     sets,
		entries:  make([]ealEntry, cfg.Banks*sets*cfg.Ways),
		fifoNext: make([]uint8, cfg.Banks*sets),
	}
}

func (e *refEAL) locate(table int, row int32) (bank, set int, tag uint32) {
	var h uint32
	if e.cfg.NoRandomizer {
		h = uint32(row)
		tag = uint32(table)<<26 ^ uint32(row)
	} else {
		h = e.feistel.HashKey(table, row)
		tag = h
	}
	bank = int(h % uint32(e.cfg.Banks))
	set = int((h / uint32(e.cfg.Banks)) % uint32(e.sets))
	return
}

func (e *refEAL) setSlice(bank, set int) []ealEntry {
	base := (bank*e.sets + set) * e.cfg.Ways
	return e.entries[base : base+e.cfg.Ways]
}

func (e *refEAL) Contains(table int, row int32) bool {
	bank, set, tag := e.locate(table, row)
	for _, ent := range e.setSlice(bank, set) {
		if ent.valid && ent.tag == tag {
			return true
		}
	}
	return false
}

func (e *refEAL) Touch(table int, row int32) bool {
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

func (e *refEAL) insert(setIdx int, ways []ealEntry, tag uint32) {
	for i := range ways {
		if !ways[i].valid {
			ways[i] = ealEntry{valid: true, rrpv: rrpvMax - 1, tag: tag}
			e.Inserts++
			return
		}
	}
	if e.cfg.Policy == PolicyFIFO {
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

func (e *refEAL) Occupancy() float64 {
	n := 0
	for _, ent := range e.entries {
		if ent.valid {
			n++
		}
	}
	return float64(n) / float64(len(e.entries))
}
