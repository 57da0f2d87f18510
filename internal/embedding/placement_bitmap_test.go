package embedding

import (
	"cmp"
	"slices"
	"testing"

	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// mapHotSet is the historical map-only hot-set implementation, kept as the
// reference the bitmap must be equivalent to.
type mapHotSet map[int32]struct{}

// farRow is a row far past every scaled table: 2^21, where the hot set once
// switched from its bitmap to an overflow map. The bitmap now spans it.
const farRow = 1 << 21

// TestHotSetBitmapEquivalence drives the bitmap hot set and the plain map
// reference with an identical mark/probe stream reaching past farRow,
// including duplicates, and checks membership, counts and sorted-row
// enumeration stay equal.
func TestHotSetBitmapEquivalence(t *testing.T) {
	rng := tensor.NewRNG(99)
	var h hotSet
	ref := mapHotSet{}

	sample := func() int32 {
		switch rng.Intn(4) {
		case 0: // dense head (bitmap, low words)
			return int32(rng.Intn(1000))
		case 1: // mid range (forces growth)
			return int32(rng.Intn(farRow))
		case 2: // exactly around farRow
			return int32(farRow - 2 + rng.Intn(4))
		default: // past farRow
			return int32(farRow + rng.Intn(100000))
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
	p.MarkHot(0, farRow+7)
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
	if !p.IsHot(0, 3) || !p.IsHot(0, farRow+7) || !p.IsHot(1, 100) {
		t.Fatal("marked rows must be hot")
	}
	if p.IsHot(0, 4) || p.IsHot(1, farRow+7) || p.IsHot(0, 100) {
		t.Fatal("unmarked rows must be cold")
	}
	want := []int32{3, farRow + 7}
	got := p.HotRows(0)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("HotRows(0) = %v, want %v", got, want)
	}
}

// The shard walk reads a Placement's hot set through its bitmap.
var _ shard.HotClassifier = (*Placement)(nil)

// TestHotBitsMatchIsHot: every row a table's hot bitmap spans reads as IsHot
// answers, and the bitmap spans the highest hot row, however far out.
func TestHotBitsMatchIsHot(t *testing.T) {
	p := NewPlacement(2, 8)
	for _, r := range []int32{0, 5, 63, 64, 700, farRow + 3} {
		p.MarkHot(0, r)
	}
	bits := p.HotBits(0)
	for r := int32(0); r < int32(64*len(bits)); r++ {
		if bit := bits[r>>6]&(1<<(r&63)) != 0; bit != p.IsHot(0, r) {
			t.Fatalf("row %d: bitmap says %v, IsHot %v", r, bit, p.IsHot(0, r))
		}
	}
	if r := int32(farRow + 3); int(r>>6) >= len(bits) || !p.IsHot(0, r) {
		t.Fatalf("row %d: bitmap spans %d words, IsHot %v", r, len(bits), p.IsHot(0, r))
	}
	if n := len(p.HotBits(1)); n != 0 {
		t.Fatalf("a table with no hot row has a %d-word bitmap", n)
	}
}

// TestPlacementFromCountsRankedOrShuffled: counts already in rank order (as
// data.AccessProfile.Counts returns them) and the same counts shuffled give
// bit-identical placements — every table's bitmap, the rank order and the
// bytes — and the shuffled input is left as it was given. Ties in count
// break by table, then row.
func TestPlacementFromCountsRankedOrShuffled(t *testing.T) {
	const tables, dim = 3, 8
	rng := tensor.NewRNG(17)
	var counts []AccessCount
	for tb := range tables {
		for r := range int32(500) {
			counts = append(counts, AccessCount{Table: tb, Row: r * 3, Count: int64(rng.Intn(40))})
		}
	}
	shuffled := make([]AccessCount, len(counts))
	for i, j := range rng.Perm(len(counts)) {
		shuffled[i] = counts[j]
	}
	given := slices.Clone(shuffled)
	byRank := func(a, b AccessCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		if a.Table != b.Table {
			return cmp.Compare(a.Table, b.Table)
		}
		return cmp.Compare(a.Row, b.Row)
	}
	ranked := slices.Clone(counts)
	slices.SortFunc(ranked, byRank)
	if slices.IsSortedFunc(shuffled, byRank) {
		t.Fatal("the shuffle left the counts in rank order")
	}

	budget := int64(300 * dim * 4)
	want, got := PlacementFromCounts(ranked, tables, dim, budget), PlacementFromCounts(shuffled, tables, dim, budget)
	if got.HotBytes != want.HotBytes || want.HotBytes != budget {
		t.Fatalf("hot bytes %d from shuffled counts, %d from ranked, budget %d", got.HotBytes, want.HotBytes, budget)
	}
	for tb := range tables {
		if !slices.Equal(got.HotBits(tb), want.HotBits(tb)) {
			t.Fatalf("table %d: the shuffled counts marked another hot set", tb)
		}
	}
	type entry struct {
		table int
		row   int32
	}
	var gotOrder, wantOrder []entry
	for tb, r := range got.Ranked() {
		gotOrder = append(gotOrder, entry{tb, r})
	}
	for tb, r := range want.Ranked() {
		wantOrder = append(wantOrder, entry{tb, r})
	}
	if !slices.Equal(gotOrder, wantOrder) {
		t.Fatal("the shuffled counts ranked the hot set in another order")
	}
	for i, e := range wantOrder {
		if c := ranked[i]; c.Table != e.table || c.Row != e.row {
			t.Fatalf("rank %d is (%d, %d), want the %d-th ranked count (%d, %d)", i, e.table, e.row, i, c.Table, c.Row)
		}
	}
	if !slices.Equal(shuffled, given) {
		t.Fatal("PlacementFromCounts reordered its input")
	}
}
