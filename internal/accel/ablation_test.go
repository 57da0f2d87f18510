package accel

import (
	"testing"
	"testing/quick"

	"hotline/internal/tensor"
)

func smallCfg() EALConfig {
	return EALConfig{SizeBytes: 4 << 10, Banks: 4, Ways: 8, Seed: 3}
}

func TestFIFOEvictsInInsertionOrder(t *testing.T) {
	cfg := EALConfig{SizeBytes: 16, Banks: 1, Ways: 2, Seed: 1, Policy: PolicyFIFO}
	// 1 bank, 4 sets of 2 ways. Find three keys mapping to the same set.
	e := NewEAL(cfg)
	var keys []int32
	_, set0, _ := e.locate(0, 0)
	bank0 := e.Bank(0, 0)
	for row := int32(0); row < 10000 && len(keys) < 3; row++ {
		b, s, _ := e.locate(0, row)
		if b == bank0 && s == set0 {
			keys = append(keys, row)
		}
	}
	if len(keys) < 3 {
		t.Skip("could not find 3 colliding keys")
	}
	e.Touch(0, keys[0])
	e.Touch(0, keys[1])
	// Re-touch keys[0] (a hit) — FIFO must ignore recency.
	e.Touch(0, keys[0])
	// Insert the third: evicts keys[0] (oldest insertion), not keys[1].
	e.Touch(0, keys[2])
	if e.Contains(0, keys[0]) {
		t.Fatal("FIFO must evict the oldest insertion even if re-referenced")
	}
	if !e.Contains(0, keys[1]) || !e.Contains(0, keys[2]) {
		t.Fatal("FIFO evicted the wrong entry")
	}
}

// Under a repeated hot set + one-shot scan, SRRIP must retain strictly more
// of the hot set than FIFO — the reason the paper picked it.
func TestSRRIPBeatsFIFOUnderScan(t *testing.T) {
	run := func(policy ReplacementPolicy) int {
		cfg := smallCfg()
		cfg.Policy = policy
		e := NewEAL(cfg)
		hot := 96
		for r := 0; r < 15; r++ {
			for i := 0; i < hot; i++ {
				e.Touch(0, int32(i))
			}
			for i := 0; i < 2048; i++ {
				e.Touch(1, int32(100000+r*2048+i)) // never repeats
			}
		}
		kept := 0
		for i := 0; i < hot; i++ {
			if e.Contains(0, int32(i)) {
				kept++
			}
		}
		return kept
	}
	srrip, fifo := run(PolicySRRIP), run(PolicyFIFO)
	if srrip <= fifo {
		t.Fatalf("SRRIP kept %d vs FIFO %d — scan resistance lost", srrip, fifo)
	}
}

func TestNoRandomizerStillCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.NoRandomizer = true
	e := NewEAL(cfg)
	e.Touch(2, 77)
	if !e.Contains(2, 77) {
		t.Fatal("raw-indexed EAL must still track entries")
	}
	if e.Contains(3, 77) {
		t.Fatal("raw indexing must still disambiguate tables via the tag")
	}
}

// Raw indexing piles the hot heads of all tables into the same sets: bank
// distribution of per-table head indices must be far more concentrated than
// with the Feistel network.
func TestNoRandomizerCollidesHotHeads(t *testing.T) {
	count := func(noRand bool) int {
		cfg := smallCfg()
		cfg.NoRandomizer = noRand
		e := NewEAL(cfg)
		slots := map[[2]int]int{}
		// Head index 0..7 of 26 tables (208 keys): raw indexing sends every
		// table's head to the same (bank, set) slots; Feistel scatters them.
		for tbl := 0; tbl < 26; tbl++ {
			for row := int32(0); row < 8; row++ {
				b, set, _ := e.locate(tbl, row)
				slots[[2]int{b, set}]++
			}
		}
		max := 0
		for _, c := range slots {
			if c > max {
				max = c
			}
		}
		return max // occupancy of the most loaded set
	}
	raw, feistel := count(true), count(false)
	if raw <= feistel {
		t.Fatalf("raw indexing should concentrate load: raw max %d vs feistel max %d", raw, feistel)
	}
	if raw <= smallCfg().Ways {
		t.Fatalf("raw max %d should exceed associativity (thrash)", raw)
	}
}

// Property: Touch then Contains always holds, for any policy/randomizer.
func TestTouchImpliesContainsProperty(t *testing.T) {
	f := func(seed uint64, policyRaw, noRand uint8) bool {
		cfg := smallCfg()
		cfg.Policy = ReplacementPolicy(policyRaw % 2)
		cfg.NoRandomizer = noRand%2 == 1
		e := NewEAL(cfg)
		rng := tensor.NewRNG(seed)
		table := rng.Intn(8)
		row := int32(rng.Intn(1 << 20))
		e.Touch(table, row)
		return e.Contains(table, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the EAL never tracks more identifiers than its capacity.
func TestCapacityBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := EALConfig{SizeBytes: 512, Banks: 2, Ways: 4, Seed: uint32(seed)}
		e := NewEAL(cfg)
		rng := tensor.NewRNG(seed)
		for i := 0; i < 4*e.Capacity(); i++ {
			e.Touch(rng.Intn(4), int32(rng.Intn(1<<16)))
		}
		return e.Occupancy() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
