package data

import (
	"sort"

	"hotline/internal/embedding"
)

// AccessProfile aggregates per-row access counts observed over a stream of
// batches. It backs the Figure 6 skew analysis, Hotline's learning phase and
// FAE's offline profiler.
type AccessProfile struct {
	NumTables int
	counts    []map[int32]int64
	Total     int64
}

// NewAccessProfile returns an empty profile over numTables tables.
func NewAccessProfile(numTables int) *AccessProfile {
	p := &AccessProfile{NumTables: numTables, counts: make([]map[int32]int64, numTables)}
	for i := range p.counts {
		p.counts[i] = make(map[int32]int64)
	}
	return p
}

// Observe adds every access in the batch to the profile.
func (p *AccessProfile) Observe(b *Batch) {
	for t := range b.Sparse {
		for _, idxs := range b.Sparse[t] {
			for _, ix := range idxs {
				p.counts[t][ix]++
				p.Total++
			}
		}
	}
}

// Count returns the access count of one row.
func (p *AccessProfile) Count(table int, row int32) int64 { return p.counts[table][row] }

// DistinctRows returns how many distinct rows were touched.
func (p *AccessProfile) DistinctRows() int {
	n := 0
	for _, m := range p.counts {
		n += len(m)
	}
	return n
}

// Counts flattens the profile into embedding.AccessCount records (sorted by
// count descending, deterministic tie-break).
func (p *AccessProfile) Counts() []embedding.AccessCount {
	out := make([]embedding.AccessCount, 0, p.DistinctRows())
	for t, m := range p.counts {
		for row, c := range m {
			out = append(out, embedding.AccessCount{Table: t, Row: row, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// SortedCounts returns just the access counts in descending order — the
// Figure 6 per-entry access curve.
func (p *AccessProfile) SortedCounts() []int64 {
	cs := p.Counts()
	out := make([]int64, len(cs))
	for i, c := range cs {
		out[i] = c.Count
	}
	return out
}

// SkewRatio returns the ratio between the pth-percentile-from-top access
// count and the median — a summary of how heavy the head is (the paper
// reports >100x for frequently-accessed entries).
func (p *AccessProfile) SkewRatio() float64 {
	sorted := p.SortedCounts()
	if len(sorted) < 10 {
		return 1
	}
	top := sorted[len(sorted)/100] // 99th percentile
	med := sorted[len(sorted)/2]
	if med == 0 {
		med = 1
	}
	return float64(top) / float64(med)
}

// ProfileEpoch runs gen for the config's epoch length and returns the
// resulting profile. batchSize controls generation granularity only.
func ProfileEpoch(gen *Generator, batchSize int) *AccessProfile {
	p := NewAccessProfile(gen.Cfg.NumTables)
	remaining := gen.Cfg.Samples
	for remaining > 0 {
		n := batchSize
		if n > remaining {
			n = remaining
		}
		p.Observe(gen.NextBatch(n))
		remaining -= n
	}
	return p
}

// PopularInputFraction classifies nSamples fresh inputs from gen and returns
// the fraction that are popular: every access the input makes is one hot
// holds (a placement's IsHot, a tracker's Contains, an oracle's set).
func PopularInputFraction(gen *Generator, nSamples int, hot func(table int, row int32) bool) float64 {
	if nSamples <= 0 {
		return 0
	}
	popular := 0
	b := gen.NextBatch(nSamples)
inputs:
	for i := 0; i < nSamples; i++ {
		for t := range b.Sparse {
			for _, ix := range b.Sparse[t][i] {
				if !hot(t, ix) {
					continue inputs
				}
			}
		}
		popular++
	}
	return float64(popular) / float64(nSamples)
}

// Replay feeds every lookup of n fresh batches of batchSize inputs from gen
// to touch, in stream order — a tracker's learning phase.
func Replay(gen *Generator, n, batchSize int, touch func(table int, row int32)) {
	for i := 0; i < n; i++ {
		b := gen.NextBatch(batchSize)
		for t := range b.Sparse {
			for _, idxs := range b.Sparse[t] {
				for _, ix := range idxs {
					touch(t, ix)
				}
			}
		}
	}
}

// ScaledHotBudget is the downscaled analogue of the paper's 512 MB
// frequently-accessed-embedding budget: cfg.HotFracRows of the scaled sparse
// footprint, with a floor so tiny configs keep a meaningful head. The
// fraction is calibrated per dataset (see the catalog) so that the resulting
// popular-input percentages match Figure 6.
func ScaledHotBudget(cfg Config) int64 {
	b := int64(cfg.HotFracRows * float64(cfg.TotalScaledRows()) * float64(cfg.EmbedDim) * 4)
	min := int64(cfg.EmbedDim) * 4 * 64 // at least 64 hot rows
	if b < min {
		b = min
	}
	return b
}

// TopKRows returns the k most-accessed (table,row) pairs of the profile.
func (p *AccessProfile) TopKRows(k int) []embedding.AccessCount {
	cs := p.Counts()
	if k > len(cs) {
		k = len(cs)
	}
	return cs[:k]
}

// DayOverlap measures, for one table, the overlap between the top-k popular
// rows on two days: |top_k(day1) ∩ top_k(day2)| / k. Figure 9's evolving
// skew shows this dropping as days pass.
func DayOverlap(cfg Config, table, day1, day2, k int) float64 {
	set := func(day int) map[int32]struct{} {
		g := NewGenerator(cfg)
		g.SetDay(day)
		s := make(map[int32]struct{}, k)
		for rank := 0; rank < k; rank++ {
			s[g.RowForRank(table, rank)] = struct{}{}
		}
		return s
	}
	a, b := set(day1), set(day2)
	inter := 0
	for r := range a {
		if _, ok := b[r]; ok {
			inter++
		}
	}
	return float64(inter) / float64(k)
}
