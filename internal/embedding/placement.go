package embedding

import (
	"math/bits"
	"sort"
)

// hotBitmapMaxRows bounds the dense-bitmap fast path of a hot set: rows
// below the bound live in a bitmap (grown lazily to the highest marked row,
// at most 256 KB per table), rows above it fall back to a map. Every scaled
// table this repository ships fits the bitmap entirely, so the per-lookup
// probe — the classification inner loop and the shard service's admission
// check — is a shift, a mask and a load instead of a map access.
const hotBitmapMaxRows = 1 << 21

// hotSet records one table's GPU-resident rows: a dense bitmap for the
// affordable row range plus an overflow map for anything beyond it.
type hotSet struct {
	bits     []uint64
	overflow map[int32]struct{}
	count    int
}

// mark adds row to the set; reports whether it was newly added.
func (h *hotSet) mark(row int32) bool {
	if row < hotBitmapMaxRows {
		w, b := int(row>>6), uint64(1)<<(row&63)
		if w >= len(h.bits) {
			if w < cap(h.bits) {
				// The spare capacity was zeroed by make and never written.
				h.bits = h.bits[:w+1]
			} else {
				// Grow geometrically: placements mark the Zipf tail in
				// ascending row order, and word-at-a-time growth would copy
				// quadratically.
				newCap := w + 1
				if c := 2 * cap(h.bits); c > newCap {
					newCap = c
				}
				grown := make([]uint64, w+1, newCap)
				copy(grown, h.bits)
				h.bits = grown
			}
		}
		if h.bits[w]&b != 0 {
			return false
		}
		h.bits[w] |= b
		h.count++
		return true
	}
	if h.overflow == nil {
		h.overflow = make(map[int32]struct{})
	}
	if _, ok := h.overflow[row]; ok {
		return false
	}
	h.overflow[row] = struct{}{}
	h.count++
	return true
}

// has reports membership. Rows under the bitmap bound never consult the
// overflow map (they can only have been marked into the bitmap).
func (h *hotSet) has(row int32) bool {
	if row < hotBitmapMaxRows {
		w := int(row >> 6)
		return w < len(h.bits) && h.bits[w]&(uint64(1)<<(row&63)) != 0
	}
	_, ok := h.overflow[row]
	return ok
}

// rows returns the members in ascending order.
func (h *hotSet) rows() []int32 {
	out := make([]int32, 0, h.count)
	for w, word := range h.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, int32(w<<6+b))
			word &= word - 1
		}
	}
	if len(h.overflow) > 0 {
		start := len(out)
		for r := range h.overflow {
			out = append(out, r)
		}
		sort.Slice(out[start:], func(i, j int) bool { return out[start+i] < out[start+j] })
	}
	return out
}

// Placement records, per table, which rows are GPU-resident. It is the
// product of Hotline's access-aware layout (learning phase) or FAE's offline
// profiler, and is consumed by the runtime schedulers. An input is popular
// when every row it touches, across all tables, is hot (the rule
// data.PopularInputFraction and the accelerator's Classify apply).
type Placement struct {
	hot      []hotSet // per table: set of GPU-resident rows
	Dim      int
	HotBytes int64
}

// NewPlacement returns an all-CPU placement for numTables tables of the
// given embedding dimension.
func NewPlacement(numTables, dim int) *Placement {
	return &Placement{hot: make([]hotSet, numTables), Dim: dim}
}

// MarkHot places row of table on the GPU tier.
func (p *Placement) MarkHot(table int, row int32) {
	if p.hot[table].mark(row) {
		p.HotBytes += int64(p.Dim) * 4
	}
}

// IsHot reports whether a row is GPU-resident.
func (p *Placement) IsHot(table int, row int32) bool {
	return p.hot[table].has(row)
}

// HotBits returns table's hot-row bitmap (shard.HotBitmap): row r below
// 64*len(bits) is hot exactly when bit r&63 of bits[r>>6] is set, and IsHot
// answers every row past it. The slice is the placement's own: read it, never
// write it, and take it again after MarkHot.
func (p *Placement) HotBits(table int) []uint64 {
	return p.hot[table].bits
}

// HotRows returns the sorted hot rows of one table (deterministic iteration
// for replication and tests).
func (p *Placement) HotRows(table int) []int32 {
	return p.hot[table].rows()
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
// offline profiler output.
func PlacementFromCounts(counts []AccessCount, numTables, dim int, budgetBytes int64) *Placement {
	sorted := make([]AccessCount, len(counts))
	copy(sorted, counts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		if sorted[i].Table != sorted[j].Table {
			return sorted[i].Table < sorted[j].Table
		}
		return sorted[i].Row < sorted[j].Row
	})
	p := NewPlacement(numTables, dim)
	rowBytes := int64(dim) * 4
	for _, c := range sorted {
		if p.HotBytes+rowBytes > budgetBytes {
			break
		}
		p.MarkHot(c.Table, c.Row)
	}
	return p
}
