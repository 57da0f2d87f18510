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

// bagLookups estimates the per-sample scalar work of a pooled lookup.
func bagLookups(indices [][]int32, dim int) int64 {
	lookups := int64(1)
	if len(indices) > 0 {
		lookups += int64(len(indices[0]))
	}
	return lookups * int64(dim)
}

// checkIndices panics on the first index outside [0, rows). Every entry point
// that takes an index set runs it once, up front, on the caller's goroutine:
// before any routing, cache admission or counter has moved, and so that the
// kernels and the shard service's dense arrays may index by row unchecked.
//
//hotline:hotpath
func checkIndices(indices [][]int32, rows int) {
	for _, idxs := range indices {
		for _, ix := range idxs {
			if uint32(ix) >= uint32(rows) {
				panic(fmt.Sprintf("embedding: index %d out of range [0,%d)", ix, rows))
			}
		}
	}
}

// blockRows is how many rows the pooling, adjoint and update kernels keep in
// flight per pass.
const blockRows = 4

// add4 adds four rows to dst, element by element in argument order:
// dst[k] = (((dst[k] + a[k]) + b[k]) + c[k]) + d[k]. Each element is loaded
// and stored once per four additions, and its chain is the one four add1
// passes build — the rows in flight reorder loads, never adds. The rows
// must be at least len(dst) long.
//
//hotline:hotpath
func add4(dst, a, b, c, d []float32) {
	// Reslicing to dst's length lets the compiler drop the bounds checks in
	// the loop.
	a, b, c, d = a[:len(dst)], b[:len(dst)], c[:len(dst)], d[:len(dst)]
	for k, v := range dst {
		v += a[k]
		v += b[k]
		v += c[k]
		v += d[k]
		dst[k] = v
	}
}

// add1 computes dst[k] += a[k]: one term of the chain add4 applies four at a
// time, for the remainder of a block. a must be at least len(dst) long.
//
//hotline:hotpath
func add1(dst, a []float32) {
	a = a[:len(dst)]
	for k := range dst {
		dst[k] += a[k]
	}
}

// fwdRange computes output rows [lo, hi) of the pooled lookup: each output
// element is the sum of its bag's rows in lookup order, four rows per pass.
//
//hotline:hotpath
func (t *Table) fwdRange(out *tensor.Matrix, indices [][]int32, lo, hi int) {
	for b := lo; b < hi; b++ {
		orow, idxs := out.Row(b), indices[b]
		for ; len(idxs) >= blockRows; idxs = idxs[blockRows:] {
			add4(orow, t.W.Row(int(idxs[0])), t.W.Row(int(idxs[1])), t.W.Row(int(idxs[2])), t.W.Row(int(idxs[3])))
		}
		for _, ix := range idxs {
			add1(orow, t.W.Row(int(ix)))
		}
	}
}

// pooled computes the sum-pooled lookup of an already checked index set into
// the instance's forward scratch, every row read from the table: the body of
// Forward and ServeForward here, and of ShardedBag's when no lookup is served
// from a staged copy.
//
//hotline:hotpath
func (t *Table) pooled(indices [][]int32) *tensor.Matrix {
	out := t.fwdOut.Resize(len(indices), t.Dim)
	perItem := bagLookups(indices, t.Dim)
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
	checkIndices(indices, t.Rows)
	out := t.pooled(indices)
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
	checkIndices(indices, t.Rows)
	return t.pooled(indices)
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
// each element is the sum of its row's output gradients in pair order, four
// gradient rows per pass.
//
//hotline:hotpath
func bagBackwardRange(grad, gradOut *tensor.Matrix, pairs []int64, starts []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		g, seg := grad.Row(i), pairs[starts[i]:starts[i+1]]
		for ; len(seg) >= blockRows; seg = seg[blockRows:] {
			add4(g, gradOut.Row(int(uint32(seg[0]))), gradOut.Row(int(uint32(seg[1]))),
				gradOut.Row(int(uint32(seg[2]))), gradOut.Row(int(uint32(seg[3]))))
		}
		for _, p := range seg {
			add1(g, gradOut.Row(int(uint32(p))))
		}
	}
}

// sgd4 applies w[k] -= lr·g[k] to four destination rows in one pass. The
// rows of a SparseGrad are distinct, so the four updates are independent;
// every product is rounded to float32 before the subtract (the conversion
// forbids a fused multiply-add), so each element ends exactly as sgd1 leaves
// it. All eight rows must be at least len(w0) long.
//
//hotline:hotpath
func sgd4(w0, w1, w2, w3, g0, g1, g2, g3 []float32, lr float32) {
	// Reslicing to w0's length lets the compiler drop the bounds checks in
	// the loop.
	n := len(w0)
	w1, w2, w3 = w1[:n], w2[:n], w3[:n]
	g0, g1, g2, g3 = g0[:n], g1[:n], g2[:n], g3[:n]
	for k := range w0 {
		w0[k] -= float32(lr * g0[k])
		w1[k] -= float32(lr * g1[k])
		w2[k] -= float32(lr * g2[k])
		w3[k] -= float32(lr * g3[k])
	}
}

// sgd1 applies w[k] -= lr·g[k] to one row: the remainder of a block of
// sgd4. g must be at least len(w) long.
//
//hotline:hotpath
func sgd1(w, g []float32, lr float32) {
	g = g[:len(w)]
	for k := range w {
		w[k] -= float32(lr * g[k])
	}
}

// sgdRange applies rows [lo, hi) of a sparse SGD update, four rows per pass.
//
//hotline:hotpath
func (t *Table) sgdRange(sg SparseGrad, lr float32, lo, hi int) {
	i := lo
	for ; i+blockRows <= hi; i += blockRows {
		r := sg.Rows[i : i+blockRows]
		sgd4(t.W.Row(int(r[0])), t.W.Row(int(r[1])), t.W.Row(int(r[2])), t.W.Row(int(r[3])),
			sg.Grad.Row(i), sg.Grad.Row(i+1), sg.Grad.Row(i+2), sg.Grad.Row(i+3), lr)
	}
	for ; i < hi; i++ {
		sgd1(t.W.Row(int(sg.Rows[i])), sg.Grad.Row(i), lr)
	}
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

// ResetStepScratch rewinds the backward arena at a step boundary. Shadow
// bags need this: their SparseGrads are absorbed into the primary model's
// stash and applied through the PRIMARY tables, so the apply-time rewind
// never fires on the shadow instance — Model.ZeroAll calls this instead.
//
//hotline:hotpath
func (t *Table) ResetStepScratch() { t.bw.reset() }

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
