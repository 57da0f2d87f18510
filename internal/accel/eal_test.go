package accel

import (
	"runtime"
	"testing"

	"hotline/internal/tensor"
)

// TestEALMatchesReference replays one seeded stream of Touch and Contains
// calls into the packed EAL and into refEAL, the 8-byte-entry EAL it
// replaced, and requires the same answer to every call and the same
// Hits/Misses/Inserts/Evicts and occupancy. The geometries cover both lane
// widths (Table IV needs no hi lanes, the small EALs do), both mappings
// (power-of-two masks, and the division form at non-power-of-two banks and
// abl-feistel's 384 sets per bank), both policies and raw indexing.
func TestEALMatchesReference(t *testing.T) {
	tableIVOps := 8 << 20 // enough for SRRIP to age and evict at 2M entries
	if testing.Short() {
		tableIVOps = 1 << 20
	}
	abl := EALConfig{SizeBytes: 48 << 10, Banks: 8, Ways: 8, Seed: 7}
	cases := []struct {
		name string
		cfg  EALConfig
		ops  int
	}{
		{"table-iv", DefaultEALConfig(), tableIVOps},
		{"table-iv-raw", with(DefaultEALConfig(), PolicySRRIP, true), 1 << 20},
		{"fifo-4set", EALConfig{SizeBytes: 16, Banks: 1, Ways: 2, Seed: 1, Policy: PolicyFIFO}, 1 << 14},
		{"fifo-4set-raw", EALConfig{SizeBytes: 16, Banks: 1, Ways: 2, Seed: 1, Policy: PolicyFIFO, NoRandomizer: true}, 1 << 14},
		{"abl-feistel", abl, 1 << 19},
		{"abl-feistel-raw", with(abl, PolicySRRIP, true), 1 << 19},
		{"abl-eal-fifo", with(abl, PolicyFIFO, false), 1 << 19},
		{"fig27-1KB", EALConfig{SizeBytes: 1 << 10, Banks: 8, Ways: 8, Seed: 7}, 1 << 16},
		{"banks12-ways6", EALConfig{SizeBytes: 14400, Banks: 12, Ways: 6, Seed: 9}, 1 << 19},
		{"banks12-ways6-fifo", EALConfig{SizeBytes: 14400, Banks: 12, Ways: 6, Seed: 9, Policy: PolicyFIFO}, 1 << 19},
		{"banks12-ways6-raw", EALConfig{SizeBytes: 14400, Banks: 12, Ways: 6, Seed: 9, NoRandomizer: true}, 1 << 19},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := NewEAL(c.cfg), newRefEAL(c.cfg)
			if got.Capacity() != len(want.entries) {
				t.Fatalf("capacity %d, reference %d", got.Capacity(), len(want.entries))
			}
			// The domain's corner keys, probed into an empty EAL first: an
			// identifier that wrapped to the invalid code would be found.
			corners := [][2]int{{63, 1<<26 - 1}, {0, 0}, {0, 1<<26 - 1}, {63, 0}}
			for _, k := range corners {
				if got.Contains(k[0], int32(k[1])) {
					t.Fatalf("empty EAL contains (%d, %d)", k[0], k[1])
				}
				if g, w := got.Touch(k[0], int32(k[1])), want.Touch(k[0], int32(k[1])); g != w {
					t.Fatalf("Touch(%d, %d) = %v, reference %v", k[0], k[1], g, w)
				}
				if !got.Contains(k[0], int32(k[1])) {
					t.Fatalf("(%d, %d) not tracked after its Touch", k[0], k[1])
				}
			}
			// Half the stream re-references a skewed hot pool the size of
			// the EAL (hits, promotions); the other half is uniform over
			// the whole domain (misses, aging, evictions).
			rng := tensor.NewRNG(uint64(len(c.name)) * 0x9E3779B97F4A7C15)
			hot := got.Capacity()
			key := func() (int, int32) {
				if rng.Intn(2) == 0 {
					k := rng.Intn(rng.Intn(hot) + 1)
					return k % 64, int32(uint32(k) * 2654435761 & (1<<26 - 1))
				}
				return rng.Intn(64), int32(rng.Intn(1 << 26))
			}
			for op := 0; op < c.ops; op++ {
				tb, row := key()
				if g, w := got.Touch(tb, row), want.Touch(tb, row); g != w {
					t.Fatalf("op %d: Touch(%d, %d) = %v, reference %v", op, tb, row, g, w)
				}
				tb, row = key()
				if g, w := got.Contains(tb, row), want.Contains(tb, row); g != w {
					t.Fatalf("op %d: Contains(%d, %d) = %v, reference %v", op, tb, row, g, w)
				}
			}
			g := [4]int64{got.Hits, got.Misses, got.Inserts, got.Evicts}
			w := [4]int64{want.Hits, want.Misses, want.Inserts, want.Evicts}
			if g != w {
				t.Fatalf("hits/misses/inserts/evicts %v, reference %v", g, w)
			}
			if got.Occupancy() != want.Occupancy() {
				t.Fatalf("occupancy %g, reference %g", got.Occupancy(), want.Occupancy())
			}
			if w[0] == 0 || w[3] == 0 {
				t.Fatalf("stream exercised no hits or no evictions: %v", w)
			}
		})
	}
}

// with returns cfg under policy and, if raw, without the randomizer.
func with(cfg EALConfig, policy ReplacementPolicy, raw bool) EALConfig {
	cfg.Policy, cfg.NoRandomizer = policy, raw
	return cfg
}

// TestEALStorageAtTableIV: the paper's EAL costs its SRAM size in memory,
// 2 bytes per entry plus one RRPV word per set, not an 8-byte struct per
// entry.
func TestEALStorageAtTableIV(t *testing.T) {
	cfg := DefaultEALConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := NewEAL(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(cfg.SizeBytes+1<<20); got > limit {
		t.Fatalf("NewEAL(DefaultEALConfig()) allocated %d bytes, want <= %d", got, limit)
	}
	if e.hi != nil {
		t.Fatal("Table IV's identifiers fit 16 bits: no hi lanes")
	}
}
