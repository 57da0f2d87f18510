package accel

import "hotline/internal/data"

// Config bundles the full accelerator configuration (Table IV defaults).
type Config struct {
	EAL     EALConfig
	Engines EngineConfig
	Reducer ReducerConfig
	EDRAM   InputEDRAMConfig
	// SampleRate is the learning-phase mini-batch sampling rate
	// (paper: 5% keeps profiling overhead ≤ 5%).
	SampleRate float64
}

// DefaultConfig returns the paper's accelerator.
func DefaultConfig() Config {
	return Config{
		EAL:        DefaultEALConfig(),
		Engines:    DefaultEngineConfig(),
		Reducer:    DefaultReducerConfig(),
		EDRAM:      DefaultInputEDRAM(),
		SampleRate: 0.05,
	}
}

// Accelerator is the functional + timing model of the Hotline accelerator.
// It owns an EAL and classifies mini-batches into popular / non-popular
// µ-batches, exactly as the Input Classifier + Lookup Engine array do.
type Accelerator struct {
	Cfg Config
	EAL *EAL
	// learning statistics
	SampledBatches int64
	TotalBatches   int64

	// classification scratch, reused across Classify calls
	popScratch, nonScratch []int
	memo                   classifyMemo
}

// memoBits sizes the classification memo (2^14 entries ≈ 256 KB).
const memoBits = 14

// classifyMemo is a direct-mapped, epoch-tagged memo of EAL probe results.
// A probe's answer depends only on the EAL's contents, which change only
// when an entry is inserted or the EAL is reset (EAL.gen counts both), never
// on a learning hit. So an epoch lasts until that generation moves, or until
// the accelerator is handed another EAL, and serves every Classify call in
// between. Zipf-skewed batches repeat their head rows constantly, so most
// probes skip the Feistel hash and the 8-way set scan entirely — this models
// the hardware's ability to service repeated identifiers from its port
// buffers rather than re-walking SRAM banks.
type classifyMemo struct {
	cells []memoCell
	epoch uint32
	// eal and gen are the EAL and generation the current epoch answers for.
	eal *EAL
	gen uint64
}

// memoCell is one memo entry: key, epoch and answer side by side, so a probe
// touches one cache line. Epoch 0 is never current, so a cell nothing wrote
// answers no key.
type memoCell struct {
	key   uint64
	epoch uint32
	val   bool
}

// sync starts a new epoch unless the current one answers for e as it is now.
//
//hotline:hotpath
func (m *classifyMemo) sync(e *EAL) {
	if m.eal == e && m.gen == e.gen {
		return
	}
	if m.cells == nil { // the first sync: no EAL was answered for yet
		m.cells = make([]memoCell, 1<<memoBits) //hotline:allow hotalloc lazy one-time memo init
	}
	m.eal, m.gen = e, e.gen
	m.epoch++
	if m.epoch == 0 {
		// The counter wrapped: scrub the cells so an entry from 2^32 epochs
		// ago can never alias the restarted counter, and skip zero — the
		// epoch of a cell nothing has written.
		clear(m.cells)
		m.epoch = 1
	}
}

// lookup probes the memo; compute is consulted (and memoised) on a miss.
//
//hotline:hotpath
func (m *classifyMemo) lookup(key uint64, compute func() bool) bool {
	c := &m.cells[(key*0x9E3779B97F4A7C15)>>(64-memoBits)]
	if c.key == key && c.epoch == m.epoch {
		return c.val
	}
	v := compute()
	*c = memoCell{key: key, epoch: m.epoch, val: v}
	return v
}

// New builds an accelerator.
func New(cfg Config) *Accelerator {
	return &Accelerator{Cfg: cfg, EAL: NewEAL(cfg.EAL)}
}

// LearnBatch feeds every access of a sampled mini-batch into the EAL
// (learning phase, §IV-1).
//
//hotline:hotpath
func (a *Accelerator) LearnBatch(b *data.Batch) {
	a.SampledBatches++
	for t := range b.Sparse {
		for _, idxs := range b.Sparse[t] {
			for _, ix := range idxs {
				a.EAL.Touch(t, ix)
			}
		}
	}
}

// MaybeLearn samples the batch at the configured rate using a deterministic
// batch counter (every k-th batch where k = 1/SampleRate), mirroring the
// periodic re-calibration the paper describes.
//
//hotline:hotpath
func (a *Accelerator) MaybeLearn(b *data.Batch) bool {
	a.TotalBatches++
	if a.Cfg.SampleRate <= 0 {
		return false
	}
	k := int64(1 / a.Cfg.SampleRate)
	if k < 1 {
		k = 1
	}
	if (a.TotalBatches-1)%k == 0 {
		a.LearnBatch(b)
		return true
	}
	return false
}

// Classification is the result of segregating one mini-batch.
type Classification struct {
	PopularIdx    []int // sample positions whose accesses are all tracked
	NonPopularIdx []int
	// ColdLookups counts accesses that missed the EAL (these rows must be
	// gathered from CPU DRAM for the non-popular µ-batch).
	ColdLookups int64
	// TotalLookups is every sparse access in the batch.
	TotalLookups int64
}

// PopularFraction returns |popular| / batch.
func (c Classification) PopularFraction() float64 {
	n := len(c.PopularIdx) + len(c.NonPopularIdx)
	if n == 0 {
		return 0
	}
	return float64(len(c.PopularIdx)) / float64(n)
}

// Classify runs the acceleration-phase segregation: an input is popular iff
// every one of its embedding indices is tracked by the EAL (§V-C).
//
// The returned index slices are scratch owned by the accelerator, valid
// until the next Classify call; callers that keep a classification across
// batches must copy them (the executor's lookahead stash does).
//
//hotline:hotpath
func (a *Accelerator) Classify(b *data.Batch) Classification {
	cl := Classification{PopularIdx: a.popScratch[:0], NonPopularIdx: a.nonScratch[:0]}
	eal := a.EAL
	a.memo.sync(eal)
	n := b.Size()
	for i := 0; i < n; i++ {
		popular := true
		for t := range b.Sparse {
			for _, ix := range b.Sparse[t][i] {
				cl.TotalLookups++
				key := uint64(t)<<32 | uint64(uint32(ix))
				tracked := a.memo.lookup(key, func() bool { return eal.Contains(t, ix) }) //hotline:allow hotalloc non-escaping predicate; memo.lookup invokes it inline or not at all
				if !tracked {
					popular = false
					cl.ColdLookups++
				}
			}
		}
		if popular {
			cl.PopularIdx = append(cl.PopularIdx, i) //hotline:allow hotalloc classification scratch; converges to the batch size
		} else {
			cl.NonPopularIdx = append(cl.NonPopularIdx, i) //hotline:allow hotalloc classification scratch; converges to the batch size
		}
	}
	a.popScratch, a.nonScratch = cl.PopularIdx, cl.NonPopularIdx
	return cl
}
