package embedding

import (
	"fmt"
	"math"

	"hotline/internal/par"
	"hotline/internal/tensor"
)

// Table is one categorical feature's embedding table: Rows vectors of
// dimension Dim.
//
// Forward output and backward sparse-gradient buffers are per-instance
// scratch: a Forward result is valid until the next Forward on the same
// instance, and a SparseGrad is valid until the step's sparse update applies
// it (ApplySparseSGD / ApplySparseAdagrad recycle the arena). Shadows own
// private scratch, so concurrent µ-batch passes never share buffers.
type Table struct {
	Rows, Dim int
	W         *tensor.Matrix // Rows x Dim

	lastIndices [][]int32
	fwdOut      tensor.Matrix
	bw          backwardArena
}

// NewTable returns a table initialised U(-1/Rows^½, +1/Rows^½) like the DLRM
// reference (scaled uniform keeps pooled sums bounded).
func NewTable(rows, dim int, rng *tensor.RNG) *Table {
	t := &Table{Rows: rows, Dim: dim, W: tensor.New(rows, dim)}
	limit := 1.0 / float64(rows)
	if limit < 0.01 {
		limit = 0.01
	}
	tensor.UniformInit(t.W, limit, rng)
	return t
}

// poolWork estimates the per-bag scalar work of a pooled lookup over bags
// bags holding lookups lookups in all: the mean bag's adds plus the output
// row's clear. The batch's total sizes the par.Serial / par.ForWork split,
// never one bag's length — a batch whose first bag is empty is as much work
// as its rotation.
//
//hotline:hotpath
func poolWork(bags, lookups, dim int) int64 {
	if bags == 0 {
		return 0
	}
	return int64(bags+lookups) * int64(dim) / int64(bags)
}

// checkIndices panics on the first index outside [0, rows) and returns the
// number of lookups it walked. Every entry point that takes an index set runs
// it once, up front, on the caller's goroutine: before any routing, cache
// admission or counter has moved, and so that the kernels and the shard
// service's dense arrays may index by row unchecked.
//
//hotline:hotpath
func checkIndices(indices [][]int32, rows int) (lookups int) {
	for _, idxs := range indices {
		lookups += len(idxs)
		for _, ix := range idxs {
			if uint32(ix) >= uint32(rows) {
				panic(fmt.Sprintf("embedding: index %d out of range [0,%d)", ix, rows))
			}
		}
	}
	return lookups
}

// kernelWork is the least a bag must hold, in elements over all its rows, to
// be summed by the vector kernel. A smaller bag — Kaggle's one-hot lookup at
// dim 16 — is a copy's worth of work, and resolving its row into a list for
// an assembly call costs more than the adds it saves, so the Go loop
// (tensor.AddRow) keeps it. A property of the input, decided per bag and
// nowhere per workload; BenchmarkBagForward's 1x16 case is the measured line.
const kernelWork = 32

// rowBlock is the most rows a driver resolves for one kernel call: its list
// of row slices lives on the driver's stack. A longer bag is cut into blocks,
// which no output bit can see (the destination is stored and reloaded between
// two blocks, exactly).
const rowBlock = 32

// kernelRows is the least number of rows of width dim that make a bag worth
// the kernel: kernelWork elements' worth, rounded up.
//
//hotline:hotpath
func kernelRows(dim int) int { return (kernelWork + dim - 1) / max(dim, 1) }

// fwdRange computes output rows [lo, hi) of the pooled lookup: each output
// element is the sum of its bag's rows in lookup order. Bags below kernelWork
// are the Go loop's, bags at or above it the vector kernel's: addSmallBags
// takes the range's leading small bags — all of a one-hot batch — and addBags
// everything from the first kernel bag on.
//
//hotline:hotpath
func (t *Table) fwdRange(out *tensor.Matrix, indices [][]int32, lo, hi int) {
	need := kernelRows(t.Dim)
	if b := t.addSmallBags(out, indices, need, lo, hi); b < hi {
		t.addBags(out, indices, need, b, hi)
	}
}

// addSmallBags pools bags [b, hi) one row at a time, by the Go loop, up to
// the first that holds need rows or more, and returns that bag's position
// (hi when there is none). Its loop holds no call, so a batch of one-hot bags
// keeps everything in registers, as it did before there was a kernel: a call
// anywhere in the loop makes the compiler spill them, bag after bag.
//
//hotline:hotpath
func (t *Table) addSmallBags(out *tensor.Matrix, indices [][]int32, need, b, hi int) int {
	for ; b < hi && len(indices[b]) < need; b++ {
		orow := out.Row(b)
		for _, ix := range indices[b] {
			tensor.AddRow(orow, t.W.Row(int(ix)))
		}
	}
	return b
}

// addBags pools bags [b, hi): one of need rows or more has its rows resolved
// into a stack block of slices and summed by tensor.AddRows with the output
// row held in registers, a block per call; a smaller one in between is added
// one row at a time, as in addSmallBags.
//
//hotline:hotpath
func (t *Table) addBags(out *tensor.Matrix, indices [][]int32, need, b, hi int) {
	var rows [rowBlock][]float32
	for ; b < hi; b++ {
		orow, idxs := out.Row(b), indices[b]
		if len(idxs) < need {
			for _, ix := range idxs {
				tensor.AddRow(orow, t.W.Row(int(ix)))
			}
			continue
		}
		for len(idxs) > 0 {
			c := min(len(idxs), rowBlock)
			for q, ix := range idxs[:c] {
				rows[q] = t.W.Row(int(ix))
			}
			tensor.AddRows(orow, rows[:c])
			idxs = idxs[c:]
		}
	}
}

// pooled computes the sum-pooled lookup of an already checked index set of
// lookups lookups into the instance's forward scratch, every row read from
// the table: the body of Forward and ServeForward here, and of ShardedBag's
// when no lookup is served from a staged copy.
//
//hotline:hotpath
func (t *Table) pooled(indices [][]int32, lookups int) *tensor.Matrix {
	out := t.fwdOut.Resize(len(indices), t.Dim)
	perItem := poolWork(len(indices), lookups, t.Dim)
	if par.Serial(len(indices), perItem) {
		t.fwdRange(out, indices, 0, len(indices))
	} else {
		par.ForWork(len(indices), perItem, func(lo, hi int) {
			t.fwdRange(out, indices, lo, hi)
		})
	}
	return out
}

// Forward performs a sum-pooled bag lookup: indices[b] lists the rows sample
// b accesses (multi-hot); the output row b is the element-wise sum of those
// embedding rows. One-hot inputs simply use single-element lists. The
// returned matrix is scratch owned by t, valid until the next Forward call
// on this instance.
//
//hotline:hotpath
func (t *Table) Forward(indices [][]int32) *tensor.Matrix {
	out := t.pooled(indices, checkIndices(indices, t.Rows))
	t.lastIndices = indices
	return out
}

// ServeForward is the online-inference read path: the same sum-pooled
// lookup as Forward, but it never arms Backward (lastIndices is untouched,
// so an in-flight train Forward→Backward pair on another instance of the
// same weights is unaffected). The single-node table has no routing or
// accounting to skip — the split exists so serving code holds one method
// across both bag implementations. The returned matrix is the instance's
// forward scratch; serve replicas own shadows, never the training instance.
//
//hotline:hotpath
func (t *Table) ServeForward(indices [][]int32) *tensor.Matrix {
	return t.pooled(indices, checkIndices(indices, t.Rows))
}

// SparseGrad holds deduplicated per-row gradients in ascending row order, so
// updates are deterministic regardless of batch ordering.
type SparseGrad struct {
	Rows []int32
	Grad *tensor.Matrix // len(Rows) x Dim
}

// Backward folds the pooled output gradient back onto the accessed rows.
// Each accessed row receives the (summed) gradient of every bag that touched
// it — the exact adjoint of sum pooling.
//
//hotline:hotpath
func (t *Table) Backward(gradOut *tensor.Matrix) SparseGrad {
	if t.lastIndices == nil {
		panic("embedding: Backward before Forward")
	}
	return t.BackwardIndices(t.lastIndices, gradOut)
}

// BackwardIndices is Backward against an explicit index set instead of the
// cached one. The TBSM model uses it to run several lookups per table per
// iteration (one per timestep) and backpropagate each independently.
//
//hotline:hotpath
func (t *Table) BackwardIndices(indices [][]int32, gradOut *tensor.Matrix) SparseGrad {
	if gradOut.Rows != len(indices) || gradOut.Cols != t.Dim {
		panic(fmt.Sprintf("embedding: Backward grad %dx%d want %dx%d",
			gradOut.Rows, gradOut.Cols, len(indices), t.Dim))
	}
	return bagBackward(&t.bw, indices, gradOut, t.Dim)
}

// maxArenaSlots bounds how many SparseGrads a backward arena pools. The
// Hotline step needs one per table instance (TimeSteps for the TBSM
// sequence table); callers that run backward passes without ever applying
// them fall off the pool into plain allocations instead of growing it.
const maxArenaSlots = 256

// sparseSlot is one pooled SparseGrad's backing storage.
type sparseSlot struct {
	rows []int32
	grad tensor.Matrix
}

// backwardArena is the reusable scratch behind bagBackward: the row-ordered
// (row, sample) pair buffer, the radix passes' second buffer, plus a
// cursor-based ring of SparseGrad slots. The cursor rewinds when a
// sparse update consumes the step's gradients (ApplySparseSGD /
// ApplySparseAdagrad), so the steady-state loop reuses the same slots every
// step.
type backwardArena struct {
	pairs, alt []int64
	starts     []int32
	slots      []*sparseSlot
	cur        int
}

// reset rewinds the slot cursor; existing slot contents stay valid until
// the next backward pass overwrites them.
//
//hotline:hotpath
func (a *backwardArena) reset() { a.cur = 0 }

// ResetStepScratch rewinds the backward arena at a step boundary. Shadow
// bags need this: their SparseGrads are absorbed into the primary model's
// stash and applied through the PRIMARY tables, so the apply-time rewind
// never fires on the shadow instance — Model.ZeroAll calls this instead.
//
// Its place in the file is also text layout: declared here, ahead of the
// adjoint's drivers, it put the tensor.AddRow loops of addSmallSegments and
// addSegments inside one 64-byte line each in PR 23's benchmark build (across
// two, a one-hot batch reads about 30% slower). Nothing pins that; re-check
// with the verify skill's objdump line before relying on it or moving this.
//
//hotline:hotpath
func (t *Table) ResetStepScratch() { t.bw.reset() }

// acquire hands out the next slot, pooling up to maxArenaSlots.
func (a *backwardArena) acquire() *sparseSlot {
	if a.cur >= maxArenaSlots {
		return &sparseSlot{}
	}
	if a.cur == len(a.slots) {
		a.slots = append(a.slots, &sparseSlot{})
	}
	s := a.slots[a.cur]
	a.cur++
	return s
}

// radixBits is the digit width of the pair ordering's counting passes.
const (
	radixBits = 8
	radixBins = 1 << radixBits
)

// orderPairsByRow sorts the packed (row << 32 | batch position) pairs by row
// with stable LSD counting passes over the row's digits only — one pass per
// byte the largest row needs. Because the pairs were appended in batch order,
// a stable sort on the row alone leaves each row's pairs in ascending batch
// position with in-bag duplicates kept: exactly the order a comparison sort
// on the whole key yields. It returns the ordered buffer and the spare one
// (the passes ping-pong between them); the histogram lives on the stack.
//
//hotline:hotpath
func orderPairsByRow(pairs, alt []int64, maxRow uint32) (ordered, spare []int64) {
	var hist [radixBins]int32
	alt = alt[:len(pairs)]
	for shift := uint(0); maxRow>>shift != 0; shift += radixBits {
		clear(hist[:])
		for _, p := range pairs {
			hist[uint64(p)>>(32+shift)&(radixBins-1)]++
		}
		var sum int32
		for d, n := range hist {
			hist[d] = sum
			sum += n
		}
		for _, p := range pairs {
			d := uint64(p) >> (32 + shift) & (radixBins - 1)
			alt[hist[d]] = p
			hist[d]++
		}
		pairs, alt = alt, pairs
	}
	return pairs, alt
}

// pairsByRow is bagBackward's serial first pass: flatten indices into packed
// (row, batch position) pairs, in batch order, and put them in row order.
// Duplicates within one bag produce identical pairs, which keep the duplicate
// contributions just like the historical touch map's repeated appends did.
// The result is arena scratch, valid until the next call.
//
//hotline:hotpath
func (a *backwardArena) pairsByRow(indices [][]int32) []int64 {
	pairs := a.pairs[:0]
	var maxRow uint32
	for b, idxs := range indices {
		for _, ix := range idxs {
			maxRow = max(maxRow, uint32(ix))
			pairs = append(pairs, int64(ix)<<32|int64(uint32(b))) //hotline:allow hotalloc arena pair buffer; growth converges to the batch's lookup count
		}
	}
	if cap(a.alt) < len(pairs) {
		a.alt = make([]int64, cap(pairs)) //hotline:allow hotalloc second pair buffer; follows the first one's growth
	}
	a.pairs, a.alt = orderPairsByRow(pairs, a.alt, maxRow)
	return a.pairs
}

// bagBackward is the adjoint of sum pooling (the sparse gradient depends only
// on indices and the output gradient, never on row values).
//
// It replaces the historical per-call map[int32][]int32 touch map with a
// row-ordered (row, sample) pair buffer: pairs pack the row in the high 32
// bits and the batch position in the low 32 and are appended in batch order,
// so a stable ordering by row (orderPairsByRow) groups each row's
// contributions in batch order — exactly the serial reduction order the map
// recorded — without allocating or comparing.
//
//hotline:hotpath
func bagBackward(a *backwardArena, indices [][]int32, gradOut *tensor.Matrix, dim int) SparseGrad {
	pairs := a.pairsByRow(indices)

	distinct := 0
	for i := range pairs {
		if i == 0 || pairs[i]>>32 != pairs[i-1]>>32 {
			distinct++
		}
	}
	slot := a.acquire()
	rows := slot.rows[:0]
	if cap(rows) < distinct {
		rows = make([]int32, 0, distinct) //hotline:allow hotalloc grown only past the arena slot's high-water mark
	}
	starts := a.starts[:0]
	if cap(starts) < distinct+1 {
		starts = make([]int32, 0, distinct+1) //hotline:allow hotalloc grown only past the arena's high-water mark
	}
	for i := range pairs {
		if i == 0 || pairs[i]>>32 != pairs[i-1]>>32 {
			rows = append(rows, int32(pairs[i]>>32)) //hotline:allow hotalloc capacity ensured above; the reslice never grows
			starts = append(starts, int32(i))        //hotline:allow hotalloc capacity ensured above; the reslice never grows
		}
	}
	starts = append(starts, int32(len(pairs))) //hotline:allow hotalloc capacity ensured above; the reslice never grows
	slot.rows, a.starts = rows, starts

	// Pass 2 (parallel over distinct rows): sum each row's contributions in
	// recorded batch order — the same addition sequence as a serial
	// accumulation, so the result is bit-identical for any worker count.
	grad := slot.grad.Resize(distinct, dim)
	perItem := 4 * int64(dim)
	if par.Serial(distinct, perItem) {
		bagBackwardRange(grad, gradOut, pairs, starts, 0, distinct)
	} else {
		par.ForWork(distinct, perItem, func(lo, hi int) {
			bagBackwardRange(grad, gradOut, pairs, starts, lo, hi)
		})
	}
	return SparseGrad{Rows: rows, Grad: grad}
}

// bagBackwardRange fills gradient rows [lo, hi) from their pair segments:
// each element is the sum of its row's output gradients in pair order, split
// between the Go loop and the kernel as in Table.fwdRange.
//
//hotline:hotpath
func bagBackwardRange(grad, gradOut *tensor.Matrix, pairs []int64, starts []int32, lo, hi int) {
	need := kernelRows(grad.Cols)
	if i := addSmallSegments(grad, gradOut, pairs, starts, need, lo, hi); i < hi {
		addSegments(grad, gradOut, pairs, starts, need, i, hi)
	}
}

// addSmallSegments is Table.addSmallBags over gradient rows [i, hi): a row's
// bag is its pair segment, the rows the output gradients at the pairs' batch
// positions.
//
//hotline:hotpath
func addSmallSegments(grad, gradOut *tensor.Matrix, pairs []int64, starts []int32, need, i, hi int) int {
	for ; i < hi && int(starts[i+1]-starts[i]) < need; i++ {
		g := grad.Row(i)
		for _, p := range pairs[starts[i]:starts[i+1]] {
			tensor.AddRow(g, gradOut.Row(int(uint32(p))))
		}
	}
	return i
}

// addSegments is Table.addBags over gradient rows [i, hi).
//
//hotline:hotpath
func addSegments(grad, gradOut *tensor.Matrix, pairs []int64, starts []int32, need, i, hi int) {
	var rows [rowBlock][]float32
	for ; i < hi; i++ {
		g, seg := grad.Row(i), pairs[starts[i]:starts[i+1]]
		if len(seg) < need {
			for _, p := range seg {
				tensor.AddRow(g, gradOut.Row(int(uint32(p))))
			}
			continue
		}
		for len(seg) > 0 {
			c := min(len(seg), rowBlock)
			for q, p := range seg[:c] {
				rows[q] = gradOut.Row(int(uint32(p)))
			}
			tensor.AddRows(g, rows[:c])
			seg = seg[c:]
		}
	}
}

// sgdRange applies rows [lo, hi) of a sparse SGD update, w[k] -= lr·g[k], as
// tensor.AxpyIntoRows with the factor -lr: a sign flip commutes with
// rounding, so w + float32((-lr)·g) is w - float32(lr·g) bit for bit.
//
//hotline:hotpath
func (t *Table) sgdRange(sg SparseGrad, lr float32, lo, hi int) {
	tensor.AxpyIntoRows(t.W, sg.Rows[lo:hi], sg.Grad.Data[lo*t.Dim:hi*t.Dim], -lr)
}

// ApplySparseSGD performs W[row] -= lr·grad for every row in sg. Rows in a
// SparseGrad are distinct, so the per-row updates shard across workers.
// Applying a step's gradients recycles the backward arena: every SparseGrad
// this instance produced since the last update becomes invalid after the
// NEXT backward pass overwrites the slots.
//
//hotline:hotpath
func (t *Table) ApplySparseSGD(sg SparseGrad, lr float32) {
	perItem := int64(t.Dim) * 2
	if par.Serial(len(sg.Rows), perItem) {
		t.sgdRange(sg, lr, 0, len(sg.Rows))
	} else {
		par.ForWork(len(sg.Rows), perItem, func(lo, hi int) {
			t.sgdRange(sg, lr, lo, hi)
		})
	}
	t.bw.reset()
}

// SizeBytes returns the table's parameter footprint (float32 entries).
func (t *Table) SizeBytes() int64 { return int64(t.Rows) * int64(t.Dim) * 4 }

// NumRows implements Bag.
func (t *Table) NumRows() int { return t.Rows }

// EmbedDim implements Bag.
func (t *Table) EmbedDim() int { return t.Dim }

// RowView implements Bag: a live view of one row's weights.
func (t *Table) RowView(r int) []float32 { return t.W.Row(r) }

// ShadowBag implements Bag.
func (t *Table) ShadowBag() Bag { return t.Shadow() }

// Clone deep-copies the table (used to run baseline and Hotline executors
// from identical initial states).
func (t *Table) Clone() *Table {
	return &Table{Rows: t.Rows, Dim: t.Dim, W: t.W.Clone()}
}

// Shadow returns a Table sharing t's weight storage with a private forward
// cache, for concurrent read-only lookups against the same parameters.
func (t *Table) Shadow() *Table {
	return &Table{Rows: t.Rows, Dim: t.Dim, W: t.W}
}

// Tables is the full sparse parameter set of a model, one Table per
// categorical feature.
type Tables []*Table

// NewTables builds one table per row-count entry, all with dimension dim.
func NewTables(rowCounts []int, dim int, rng *tensor.RNG) Tables {
	ts := make(Tables, len(rowCounts))
	for i, rows := range rowCounts {
		ts[i] = NewTable(rows, dim, rng)
	}
	return ts
}

// SizeBytes returns the total sparse footprint.
func (ts Tables) SizeBytes() int64 {
	var n int64
	for _, t := range ts {
		n += t.SizeBytes()
	}
	return n
}

// TotalRows returns the summed row count across tables.
func (ts Tables) TotalRows() int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.Rows)
	}
	return n
}

// Clone deep-copies every table.
func (ts Tables) Clone() Tables {
	out := make(Tables, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// Shadow returns weight-sharing shadows of every table.
func (ts Tables) Shadow() Tables {
	out := make(Tables, len(ts))
	for i, t := range ts {
		out[i] = t.Shadow()
	}
	return out
}

// AdagradState holds per-element squared-gradient accumulators for one
// table's sparse Adagrad updates (the DLRM reference's production
// optimizer).
type AdagradState struct {
	Accum *tensor.Matrix // Rows x Dim, same shape as the table
	Eps   float32
}

// NewAdagradStateFor returns a zeroed accumulator shaped for any Bag. The
// accumulator is indexed by global row, so the same state drives a
// single-node Table and a ShardedBag identically.
func NewAdagradStateFor(b Bag) *AdagradState {
	return &AdagradState{Accum: tensor.New(b.NumRows(), b.EmbedDim()), Eps: 1e-8}
}

// ApplySparseAdagrad implements Bag: the adaptive update on the touched
// rows, G[row] += g², W[row] -= lr·g/√(G[row]+eps). Because the step is
// non-linear in g, callers must pass the FULL mini-batch gradient (popular
// and non-popular µ-batches accumulated) to stay at parity with a baseline
// that updates once per mini-batch.
//
//hotline:hotpath
func (t *Table) ApplySparseAdagrad(st *AdagradState, sg SparseGrad, lr float32) {
	for i, ix := range sg.Rows {
		adagradRow(t.W.Row(int(ix)), st.Accum.Row(int(ix)), sg.Grad.Row(i), lr, st.Eps)
	}
	t.bw.reset()
}

// adagradRow is the per-row adaptive step, in serial element order.
//
//hotline:hotpath
func adagradRow(wrow, arow, grow []float32, lr, eps float32) {
	for k := range wrow {
		g := grow[k]
		arow[k] += float32(g * g)
		wrow[k] -= lr * g / sqrt32(arow[k]+eps)
	}
}

//hotline:hotpath
func sqrt32(v float32) float32 { return float32(math.Sqrt(float64(v))) }
