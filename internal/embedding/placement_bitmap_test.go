package embedding

import (
	"testing"

	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// mapHotSet is the historical map-only hot-set implementation, kept as the
// reference the bitmap fast path must be equivalent to.
type mapHotSet map[int32]struct{}

// TestHotSetBitmapEquivalence drives the bitmap+overflow hot set and the
// plain map reference with an identical mark/probe stream straddling the
// bitmap bound, including duplicates, and checks membership, counts and
// sorted-row enumeration stay equal.
func TestHotSetBitmapEquivalence(t *testing.T) {
	rng := tensor.NewRNG(99)
	var h hotSet
	ref := mapHotSet{}

	sample := func() int32 {
		switch rng.Intn(4) {
		case 0: // dense head (bitmap, low words)
			return int32(rng.Intn(1000))
		case 1: // mid range (bitmap, forces growth)
			return int32(rng.Intn(hotBitmapMaxRows))
		case 2: // exactly around the bound
			return int32(hotBitmapMaxRows - 2 + rng.Intn(4))
		default: // overflow range
			return int32(hotBitmapMaxRows + rng.Intn(100000))
		}
	}

	for i := 0; i < 20000; i++ {
		r := sample()
		if rng.Intn(2) == 0 {
			added := h.mark(r)
			_, had := ref[r]
			if added == had {
				t.Fatalf("mark(%d): added=%v but reference had=%v", r, added, had)
			}
			ref[r] = struct{}{}
		} else {
			_, want := ref[r]
			if got := h.has(r); got != want {
				t.Fatalf("has(%d) = %v, reference %v", r, got, want)
			}
		}
	}
	if h.count != len(ref) {
		t.Fatalf("count %d, reference %d", h.count, len(ref))
	}
	rows := h.rows()
	if len(rows) != len(ref) {
		t.Fatalf("rows() returned %d entries, reference %d", len(rows), len(ref))
	}
	for i, r := range rows {
		if i > 0 && rows[i-1] >= r {
			t.Fatalf("rows() not strictly ascending at %d: %d >= %d", i, rows[i-1], r)
		}
		if _, ok := ref[r]; !ok {
			t.Fatalf("rows() contains %d, not in reference", r)
		}
	}
}

// TestPlacementBitmapSemantics covers the Placement surface over the new
// hot sets: byte accounting, per-table counts and membership.
func TestPlacementBitmapSemantics(t *testing.T) {
	p := NewPlacement(2, 8)
	p.MarkHot(0, 3)
	p.MarkHot(0, 3) // duplicate must not double-count
	p.MarkHot(0, hotBitmapMaxRows+7)
	p.MarkHot(1, 100)

	if n := len(p.HotRows(0)) + len(p.HotRows(1)); n != 3 {
		t.Fatalf("hot rows = %d, want 3", n)
	}
	if p.HotBytes != 3*8*4 {
		t.Fatalf("HotBytes = %d, want %d", p.HotBytes, 3*8*4)
	}
	if len(p.HotRows(0)) != 2 || len(p.HotRows(1)) != 1 {
		t.Fatalf("per-table counts = %d/%d, want 2/1", len(p.HotRows(0)), len(p.HotRows(1)))
	}
	if !p.IsHot(0, 3) || !p.IsHot(0, hotBitmapMaxRows+7) || !p.IsHot(1, 100) {
		t.Fatal("marked rows must be hot")
	}
	if p.IsHot(0, 4) || p.IsHot(1, hotBitmapMaxRows+7) || p.IsHot(0, 100) {
		t.Fatal("unmarked rows must be cold")
	}
	want := []int32{3, hotBitmapMaxRows + 7}
	got := p.HotRows(0)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("HotRows(0) = %v, want %v", got, want)
	}
}

// The shard walk reads a Placement's hot set through its bitmap.
var _ shard.HotBitmap = (*Placement)(nil)

// TestHotBitsMatchIsHot: every row a table's hot bitmap spans reads as IsHot
// answers, and a hot row past the bitmap (the overflow range) is one IsHot
// alone knows.
func TestHotBitsMatchIsHot(t *testing.T) {
	p := NewPlacement(2, 8)
	for _, r := range []int32{0, 5, 63, 64, 700, hotBitmapMaxRows + 3} {
		p.MarkHot(0, r)
	}
	bits := p.HotBits(0)
	for r := int32(0); r < int32(64*len(bits)); r++ {
		if bit := bits[r>>6]&(1<<(r&63)) != 0; bit != p.IsHot(0, r) {
			t.Fatalf("row %d: bitmap says %v, IsHot %v", r, bit, p.IsHot(0, r))
		}
	}
	if r := int32(hotBitmapMaxRows + 3); int(r>>6) < len(bits) || !p.IsHot(0, r) {
		t.Fatalf("overflow row %d: bitmap spans %d words, IsHot %v", r, len(bits), p.IsHot(0, r))
	}
	if n := len(p.HotBits(1)); n != 0 {
		t.Fatalf("a table with no hot row has a %d-word bitmap", n)
	}
}
