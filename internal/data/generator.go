package data

import (
	"fmt"
	"math"
	"sync"

	"hotline/internal/tensor"
)

// Batch is one mini-batch of training inputs.
type Batch struct {
	// Dense is B x DenseFeatures continuous features.
	Dense *tensor.Matrix
	// Sparse[table][sample] lists the embedding rows the sample accesses in
	// that table (LookupsPerTable entries, TimeSteps entries for the TBSM
	// sequence table).
	Sparse [][][]int32
	// Labels holds the {0,1} click labels.
	Labels []float32
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Labels) }

// Subset extracts the samples at the given positions into a new Batch,
// preserving order. The Hotline executor uses this to materialise popular and
// non-popular µ-batches.
func (b *Batch) Subset(idx []int) *Batch {
	return b.SubsetInto(&Batch{}, idx)
}

// SubsetInto is Subset writing into a reusable destination batch: the dense
// matrix, label slice and sparse index tables are resized in place (index
// lists are shared slice views of b, never copied), so the steady-state
// executor reuses one buffer per µ-batch instead of allocating per step.
// dst must not be b.
func (b *Batch) SubsetInto(dst *Batch, idx []int) *Batch {
	if dst.Dense == nil {
		dst.Dense = &tensor.Matrix{}
	}
	dst.Dense.ResizeNoZero(len(idx), b.Dense.Cols) // every row copied below
	if cap(dst.Labels) < len(idx) {
		dst.Labels = make([]float32, len(idx))
	}
	dst.Labels = dst.Labels[:len(idx)]
	if cap(dst.Sparse) < len(b.Sparse) {
		dst.Sparse = make([][][]int32, len(b.Sparse))
	}
	dst.Sparse = dst.Sparse[:len(b.Sparse)]
	for t := range b.Sparse {
		if cap(dst.Sparse[t]) < len(idx) {
			dst.Sparse[t] = make([][]int32, len(idx))
		}
		dst.Sparse[t] = dst.Sparse[t][:len(idx)]
	}
	for j, i := range idx {
		copy(dst.Dense.Row(j), b.Dense.Row(i))
		dst.Labels[j] = b.Labels[i]
		for t := range b.Sparse {
			dst.Sparse[t][j] = b.Sparse[t][i]
		}
	}
	return dst
}

// Generator produces deterministic synthetic batches for one dataset config.
// The popularity of embedding rows follows Zipf(cfg.ZipfS); rank r of table t
// maps to a concrete row id through a per-day permutation so that the set of
// popular rows drifts across days (evolving skew, Figure 9).
//
// A Generator is safe for concurrent use: NextBatch, SetDay and RowForRank
// serialise on an internal mutex. The batch *stream* stays deterministic —
// concurrent NextBatch callers each receive a well-formed batch from the
// stream, though which caller gets which batch depends on arrival order;
// callers that need a fixed caller-to-batch assignment should draw from
// per-goroutine Generators (construction is cheap and seeded).
type Generator struct {
	Cfg Config
	Day int

	mu      sync.Mutex
	rng     *tensor.RNG
	zipfs   []*Zipf
	perms   [][]int32 // per table: rank -> row id for the current day
	labeler *labeler
}

// NewGenerator builds a generator positioned at day 0.
func NewGenerator(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		Cfg:     cfg,
		rng:     tensor.NewRNG(cfg.Seed),
		zipfs:   make([]*Zipf, cfg.NumTables),
		labeler: newLabeler(cfg),
	}
	for t := range g.zipfs {
		g.zipfs[t] = NewZipf(cfg.ScaledRowsPerTable[t], cfg.ZipfS)
	}
	g.SetDay(0)
	return g
}

// SetDay positions the generator at a simulated day. The day-d permutation is
// derived from the base permutation by d rounds of partial reshuffling: each
// round remaps DriftPerDay of the most popular ranks to fresh rows. Calling
// SetDay with any value is deterministic and order-independent.
func (g *Generator) SetDay(day int) {
	if day < 0 {
		panic(fmt.Sprintf("data: negative day %d", day))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.Day = day
	g.perms = make([][]int32, g.Cfg.NumTables)
	for t := range g.perms {
		g.perms[t] = g.dayPerm(t, day)
	}
}

// dayPerm computes the rank->row permutation for one table on one day.
func (g *Generator) dayPerm(table, day int) []int32 {
	rows := g.Cfg.ScaledRowsPerTable[table]
	base := tensor.NewRNG(g.Cfg.Seed ^ (uint64(table)+1)*0x9E3779B97F4A7C15)
	perm := make([]int32, rows)
	for i, v := range base.Perm(rows) {
		perm[i] = int32(v)
	}
	// Drift: remap a slice of the popular head each day.
	head := int(float64(rows) * 0.05) // the ranks that matter for popularity
	if head < 1 {
		head = 1
	}
	moved := int(float64(head) * g.Cfg.DriftPerDay)
	for d := 1; d <= day; d++ {
		dr := tensor.NewRNG(g.Cfg.Seed ^ uint64(table+1)<<32 ^ uint64(d)*0xBF58476D1CE4E5B9)
		for m := 0; m < moved; m++ {
			a := dr.Intn(head)
			b := dr.Intn(rows)
			perm[a], perm[b] = perm[b], perm[a]
		}
	}
	return perm
}

// RowForRank exposes the current day's rank->row mapping (used by skew
// analyses and tests).
func (g *Generator) RowForRank(table, rank int) int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.perms[table][rank]
}

// NextBatches draws the next count mini-batches of n samples each, in
// stream order.
func (g *Generator) NextBatches(count, n int) []*Batch {
	bs := make([]*Batch, count)
	for i := range bs {
		bs[i] = g.NextBatch(n)
	}
	return bs
}

// NextBatch draws n samples. Consecutive calls advance the RNG stream, so an
// epoch is a sequence of NextBatch calls.
//
// Each table's indices live in one slab of n*k entries; sample i holds the
// view slab[i*k:(i+1)*k] capped at its own end, so an append to one sample's
// list reallocates instead of overwriting its neighbour's.
func (g *Generator) NextBatch(n int) *Batch {
	g.mu.Lock()
	defer g.mu.Unlock()
	cfg := g.Cfg
	b := &Batch{
		Dense:  tensor.New(n, cfg.DenseFeatures),
		Sparse: make([][][]int32, cfg.NumTables),
		Labels: make([]float32, n),
	}
	for t := range b.Sparse {
		k := cfg.LookupsPerTable
		if cfg.TimeSteps > 1 && t == 0 {
			k = cfg.TimeSteps // behaviour-sequence table
		}
		slab := make([]int32, n*k)
		b.Sparse[t] = make([][]int32, n)
		for i := range b.Sparse[t] {
			b.Sparse[t][i] = slab[i*k : (i+1)*k : (i+1)*k]
		}
	}
	sample := make([][]int32, cfg.NumTables) // the labeler's view of sample i
	for i := 0; i < n; i++ {
		drow := b.Dense.Row(i)
		for f := range drow {
			drow[f] = float32(g.rng.NormFloat64())
		}
		for t, z := range g.zipfs {
			idxs, perm := b.Sparse[t][i], g.perms[t]
			for j := range idxs {
				idxs[j] = perm[z.Sample(g.rng)]
			}
			sample[t] = idxs
		}
		b.Labels[i] = g.labeler.label(drow, sample, g.rng)
	}
	return b
}

// labeler produces labels from a hidden ground-truth model so that training
// has learnable signal (AUC rises above 0.5) while remaining deterministic.
type labeler struct {
	denseW []float32
	alpha  float32
}

func newLabeler(cfg Config) *labeler {
	rng := tensor.NewRNG(cfg.Seed ^ 0x1AB31ED)
	l := &labeler{denseW: make([]float32, cfg.DenseFeatures), alpha: 1.5}
	for i := range l.denseW {
		l.denseW[i] = float32(rng.NormFloat64())
	}
	return l
}

// hiddenRowEffect hashes (table, row) to a stable effect in [-0.5, 0.5].
func hiddenRowEffect(table int, row int32) float32 {
	h := uint64(table+1)*0x9E3779B97F4A7C15 ^ uint64(uint32(row))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return float32(h%1000)/1000 - 0.5
}

func (l *labeler) label(dense []float32, sparse [][]int32, rng *tensor.RNG) float32 {
	var logit float32
	for i, v := range dense {
		logit += l.denseW[i] * v * 0.3
	}
	for t, idxs := range sparse {
		for _, ix := range idxs {
			logit += hiddenRowEffect(t, ix)
		}
	}
	p := 1 / (1 + expNeg(l.alpha*logit))
	if rng.Float32() < p {
		return 1
	}
	return 0
}

func expNeg(x float32) float32 { return float32(math.Exp(float64(-x))) }
