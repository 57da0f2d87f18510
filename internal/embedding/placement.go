package embedding

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

// hotSet is one table's GPU-resident rows as a bitmap: row r is hot exactly
// when bit r&63 of word r>>6 is set. It spans the highest marked row, so the
// per-lookup probe — the classification inner loop and the shard service's
// gather walk — is a shift, a mask and a load.
type hotSet []uint64

// mark adds row to the set; reports whether it was newly added.
func (h *hotSet) mark(row int32) bool {
	w, b := int(row>>6), uint64(1)<<(row&63)
	if w >= len(*h) {
		// append grows geometrically: placements mark the Zipf tail in
		// ascending row order, and word-at-a-time growth would copy
		// quadratically.
		*h = append(*h, make([]uint64, w+1-len(*h))...)
	}
	if (*h)[w]&b != 0 {
		return false
	}
	(*h)[w] |= b
	return true
}

// has reports membership; a row past the bitmap is cold.
func (h hotSet) has(row int32) bool {
	w := uint(row) >> 6
	return w < uint(len(h)) && h[w]&(uint64(1)<<(uint(row)&63)) != 0
}

// rows returns the members in ascending order.
func (h hotSet) rows() []int32 {
	var out []int32
	for w, word := range h {
		for word != 0 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// Placement records, per table, which rows are GPU-resident. It is the
// product of Hotline's access-aware layout (learning phase) or FAE's offline
// profiler, and is consumed by the runtime schedulers. An input is popular
// when every row it touches, across all tables, is hot (the rule
// data.PopularInputFraction and the accelerator's Classify apply).
type Placement struct {
	hot []hotSet // per table: set of GPU-resident rows
	// order lists every hot (table, row) in the order MarkHot first marked
	// it: rank order, most popular first, for PlacementFromCounts.
	order    []hotRow
	Dim      int
	HotBytes int64
}

// hotRow is one entry of a Placement's mark order.
type hotRow struct {
	table int32
	row   int32
}

// NewPlacement returns an all-CPU placement for numTables tables of the
// given embedding dimension.
func NewPlacement(numTables, dim int) *Placement {
	return &Placement{hot: make([]hotSet, numTables), Dim: dim}
}

// MarkHot places row of table on the GPU tier.
func (p *Placement) MarkHot(table int, row int32) {
	if p.hot[table].mark(row) {
		p.order = append(p.order, hotRow{int32(table), row})
		p.HotBytes += int64(p.Dim) * 4
	}
}

// IsHot reports whether a row is GPU-resident.
func (p *Placement) IsHot(table int, row int32) bool {
	return p.hot[table].has(row)
}

// HotBits returns table's hot-row bitmap (shard.HotClassifier): row r is hot
// exactly when r lies inside the slice and bit r&63 of bits[r>>6] is set. The
// slice is the placement's own: read it, never write it, and take it again
// after MarkHot.
func (p *Placement) HotBits(table int) []uint64 {
	return p.hot[table]
}

// HotRows returns the sorted hot rows of one table (deterministic iteration
// for replication and tests).
func (p *Placement) HotRows(table int) []int32 {
	return p.hot[table].rows()
}

// Ranked yields every hot (table, row) in the order MarkHot first marked it
// (shard.HotClassifier): for PlacementFromCounts, rank order, most popular
// first — the order a service's swap admits the set in.
func (p *Placement) Ranked() iter.Seq2[int, int32] {
	return func(yield func(int, int32) bool) {
		for _, h := range p.order {
			if !yield(int(h.table), h.row) {
				return
			}
		}
	}
}

// AccessCount is a (table, row) access-frequency record.
type AccessCount struct {
	Table int
	Row   int32
	Count int64
}

// PlacementFromCounts builds the access-aware layout: rows are ranked by
// access count globally and marked hot greedily until budgetBytes of HBM is
// consumed. This models both Hotline's learning phase output and FAE's
// offline profiler output. Counts already in rank order — as
// data.AccessProfile.Counts returns them — are read as they are; others are
// ranked on a copy.
func PlacementFromCounts(counts []AccessCount, numTables, dim int, budgetBytes int64) *Placement {
	byRank := func(a, b AccessCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		if a.Table != b.Table {
			return cmp.Compare(a.Table, b.Table)
		}
		return cmp.Compare(a.Row, b.Row)
	}
	sorted := counts
	if !slices.IsSortedFunc(counts, byRank) {
		sorted = slices.Clone(counts)
		slices.SortFunc(sorted, byRank)
	}
	p := NewPlacement(numTables, dim)
	rowBytes := int64(dim) * 4
	// The set holds at most what the budget pays for.
	p.order = make([]hotRow, 0, min(len(sorted), int(max(budgetBytes, 0)/rowBytes)))
	for _, c := range sorted {
		if p.HotBytes+rowBytes > budgetBytes {
			break
		}
		p.MarkHot(c.Table, c.Row)
	}
	return p
}
