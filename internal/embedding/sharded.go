package embedding

import (
	"fmt"

	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// ShardedBag is the multi-node embedding-bag: the table's rows are
// partitioned across the nodes of a shard.Service under its placement
// policy (round-robin by default; capacity-weighted and hot-row-aware
// partitioners relocate rows without touching any math), and every lookup
// and gradient push is routed through the service for device-cache
// simulation and all-to-all accounting.
//
// The operator math is bit-identical to the single-node Table for every
// node count and placement: partitioning only relocates rows, the per-bag
// summation order and the sparse-gradient reduction order are exactly the
// serial ones, and the Service's accounting never touches values.
// TestShardedBagBitIdentical enforces this for node counts {1,2,4,8}.
//
// When the service carries an async gather engine, Prefetch issues a
// µ-batch's fabric fetches ahead of time; the matching Forward then blocks
// only on whatever the overlap failed to hide and reads the remote rows
// from the staging buffer. Up to pipeline-depth windows can be open at
// once (the depth-k cross-iteration pipeline): the bag and its shadows
// share one shard.WindowQueue registering every issued window in stream
// order, sparse updates mark the staged rows they rewrite as dirty, and
// the consuming Forward delta-repairs them first — so the values applied
// are bit-identical to a synchronous gather at consume time, for any
// depth. Like Table, forward output and sparse-gradient buffers are
// per-instance scratch reused across calls.
type ShardedBag struct {
	Rows, Dim int
	// TableIdx keys the service's cache and traffic accounting.
	TableIdx int

	svc    *shard.Service
	shards []*tensor.Matrix // shards[n] packs the rows owned by node n
	// owner[r] / local[r] locate global row r inside its owner shard;
	// shared (read-only) with shadows.
	owner []int32
	local []int32

	// windows is the open prefetch-window registry and dirty-row tracker,
	// shared with shadows (a shadow issues the lookahead windows; the
	// primary bag's sparse updates invalidate their staged rows).
	windows *shard.WindowQueue

	lastIndices [][]int32
	fwdOut      tensor.Matrix
	bw          backwardArena
	fetchFn     shard.FetchFunc // bound once; a per-call method value would allocate
	rowAt       shard.RowAt     // bound once, like fetchFn; source for scatter pushes
}

// ShardBag partitions a table's rows across the service's nodes under its
// placement policy, copying each row into its owner shard. The source table
// is not retained.
func ShardBag(t *Table, svc *shard.Service, tableIdx int) *ShardedBag {
	nodes := svc.Nodes()
	s := &ShardedBag{
		Rows: t.Rows, Dim: t.Dim, TableIdx: tableIdx,
		svc: svc, shards: make([]*tensor.Matrix, nodes),
		// The service walks the partitioner once and routes its accounting by
		// the same array the shards are laid out by.
		owner: svc.TableOwners(tableIdx, t.Rows), local: make([]int32, t.Rows),
	}
	counts := make([]int, nodes)
	for r, o := range s.owner {
		s.local[r] = int32(counts[o])
		counts[o]++
	}
	for n := 0; n < nodes; n++ {
		s.shards[n] = tensor.New(counts[n], t.Dim)
	}
	for r := 0; r < t.Rows; r++ {
		copy(s.shards[s.owner[r]].Row(int(s.local[r])), t.W.Row(r))
	}
	s.windows = svc.NewWindowQueue(tableIdx)
	s.fetchFn = s.fetchRow
	s.rowAt = s.rowViewAt
	// Declare the table to the fabric: on a multi-process transport this is
	// the initial shard sync (every row is pushed to its owner node), so
	// worker stores serve exactly the bits the mirror above holds.
	svc.RegisterTable(tableIdx, t.Dim, t.Rows, s.rowAt)
	return s
}

// Service returns the shard service the bag routes through.
func (s *ShardedBag) Service() *shard.Service { return s.svc }

// RowView implements Bag: a live view of row r inside its owner shard.
//
//hotline:hotpath
func (s *ShardedBag) RowView(r int) []float32 {
	return s.shards[s.owner[r]].Row(int(s.local[r]))
}

// Prefetch issues the asynchronous gather of a µ-batch's remote rows: the
// service plans the fabric fetches (advancing cache state and counters
// exactly like a synchronous gather) and the engine streams them into a
// staging buffer while the caller computes something else — the Hotline
// executor overlaps the non-popular gather with the popular µ-batch inside
// an iteration, and the depth-k cross-iteration pipeline issues the next
// k-1 mini-batches' gathers right after the current sparse update so they
// stream through the dense step and the following iterations. Windows are
// registered FIFO in the shared WindowQueue; the Forward over the same
// index set consumes the oldest one. A no-op without an engine or on a
// single node.
//
//hotline:hotpath
func (s *ShardedBag) Prefetch(indices [][]int32) {
	checkIndices(indices, s.Rows)
	g := s.svc.Gatherer()
	if g == nil || s.svc.Nodes() == 1 {
		return
	}
	plan := s.svc.PlanGather(s.TableIdx, indices)
	var h *shard.Handle
	if plan != nil {
		h = g.Submit(plan, s.Dim, s.fetchFn)
	}
	s.windows.Push(indices, h)
}

// AbortPrefetch joins and discards every outstanding prefetch window of
// this bag and its shadows (their accounting already happened — wasted
// prefetches). The executor calls it when a pipelined lookahead turns out
// not to match the batches actually trained, so a reused index buffer can
// never satisfy a stale window.
func (s *ShardedBag) AbortPrefetch() { s.windows.Abort() }

// PendingWindows reports the open (issued, unconsumed) prefetch windows
// shared across this bag and its shadows.
func (s *ShardedBag) PendingWindows() int { return s.windows.Len() }

// fetchRow copies one owner-resident row into its staging slot.
//
//hotline:hotpath
func (s *ShardedBag) fetchRow(row int32, dst []float32) {
	copy(dst, s.RowView(int(row)))
}

// rowViewAt is RowView with the fabric's signature (bound once into rowAt).
//
//hotline:hotpath
func (s *ShardedBag) rowViewAt(row int32) []float32 { return s.RowView(int(row)) }

// srcRow locates the values a lookup of row ix pools: the staged copy when
// the window's plan fetched (or dequantized) the row — bit-identical to the
// owner-shard row unless the row is served from the warm tier — and the
// owner shard otherwise.
//
//hotline:hotpath
func (s *ShardedBag) srcRow(ix int32, staged *shard.Staging) []float32 {
	if staged != nil {
		if v, ok := staged.Lookup(ix); ok {
			return v
		}
	}
	return s.RowView(int(ix))
}

// fwdRange computes output rows [lo, hi) of the pooled lookup, reading
// fabric-fetched rows from the staging buffer: each output element is the
// sum of its bag's rows in lookup order, four resolved rows per pass.
//
//hotline:hotpath
func (s *ShardedBag) fwdRange(out *tensor.Matrix, indices [][]int32, staged *shard.Staging, lo, hi int) {
	for b := lo; b < hi; b++ {
		orow, idxs := out.Row(b), indices[b]
		for ; len(idxs) >= blockRows; idxs = idxs[blockRows:] {
			add4(orow, s.srcRow(idxs[0], staged), s.srcRow(idxs[1], staged),
				s.srcRow(idxs[2], staged), s.srcRow(idxs[3], staged))
		}
		for _, ix := range idxs {
			add1(orow, s.srcRow(ix, staged))
		}
	}
}

// Forward implements Bag: the sum-pooled lookup with shard routing. The
// service accounting runs as a serial pre-pass (cache state must evolve in
// batch order); the arithmetic then shards across workers exactly like the
// single-node operator. When the oldest open Prefetch window matches the
// index set it is consumed — blocking only on the exposed remainder of the
// gather, with rows dirtied by intervening sparse updates delta-repaired
// first (or served stale under Service.SetStaleReads). A non-matching
// forward (an evaluation pass, a popular µ-batch) leaves younger windows
// untouched and, with an engine attached, stages its fabric rows
// synchronously — the measured baseline the overlap is compared against.
// Consumed staging buffers are recycled into the engine's ring.
//
//hotline:hotpath
func (s *ShardedBag) Forward(indices [][]int32) *tensor.Matrix {
	checkIndices(indices, s.Rows)
	var staged *shard.Staging
	var win *shard.Window
	g := s.svc.Gatherer()
	if w := s.windows.Match(indices); w != nil {
		win = w
		staged = s.windows.Consume(w, s.fetchFn)
	} else if g != nil && s.svc.Nodes() > 1 {
		if plan := s.svc.PlanGather(s.TableIdx, indices); plan != nil {
			staged = g.GatherSync(plan, s.Dim, s.fetchFn)
		}
	} else {
		s.svc.RecordGather(s.TableIdx, indices)
	}

	out := s.fwdOut.Resize(len(indices), s.Dim)
	perItem := bagLookups(indices, s.Dim)
	if par.Serial(len(indices), perItem) {
		s.fwdRange(out, indices, staged, 0, len(indices))
	} else {
		par.ForWork(len(indices), perItem, func(lo, hi int) {
			s.fwdRange(out, indices, staged, lo, hi)
		})
	}
	if staged != nil {
		g.Release(staged)
	}
	if win != nil {
		s.windows.Recycle(win)
	}
	s.lastIndices = indices
	return out
}

// ServeForward is the online-inference read path: the pooled lookup with
// serve-side routing. Unlike Forward it is strictly read-only with respect
// to training machinery — it never matches or consumes a prefetch window
// (open lookahead windows belong to the training stream and must survive a
// concurrent predict), never arms Backward, and books its traffic into the
// service's serve counters (ServeSnapshot) so training traffic fractions
// stay clean. The shared device caches ARE warmed: live request traffic
// keeps the popular rows resident for both paths, which is the serving
// story's whole point. Rows are read directly from the owner shards — the
// accounting pass prices the fabric gather; no staging copy is needed for
// a read that applies no delta repair.
//
// The returned matrix is this instance's forward scratch. Serve replicas
// must be shadows (ShadowBag / model.NewShadow): calling ServeForward on
// an instance with an in-flight Forward→Backward pair would overwrite the
// activations that backward still reads. A replica may read beside the
// training passes, which only read rows too; against the sparse update it
// is ordered by the model's parameter lock (model.ApplyUpdate), held by the
// caller — nothing in this package locks rows.
//
//hotline:hotpath
func (s *ShardedBag) ServeForward(indices [][]int32) *tensor.Matrix {
	checkIndices(indices, s.Rows)
	var staged *shard.Staging
	if s.svc.Multiproc() || s.svc.Quantized() {
		// On a real fabric the read path must actually cross it: stage the
		// remote rows synchronously from their owner processes (timed into
		// the serve-side wall meter) and read the pooled values from the
		// staging buffer. Precision-tiered caches stage too — warm-tier hits
		// must be served through the fused dequantize-gather, not read exact
		// from the mirror.
		if plan := s.svc.PlanServeGather(s.TableIdx, indices); plan != nil {
			staged = s.svc.ServeGatherSync(plan, s.Dim, s.fetchFn)
		}
	} else {
		s.svc.RecordServeGather(s.TableIdx, indices)
	}
	out := s.fwdOut.Resize(len(indices), s.Dim)
	perItem := bagLookups(indices, s.Dim)
	if par.Serial(len(indices), perItem) {
		s.fwdRange(out, indices, staged, 0, len(indices))
	} else {
		par.ForWork(len(indices), perItem, func(lo, hi int) {
			s.fwdRange(out, indices, staged, lo, hi)
		})
	}
	if staged != nil {
		s.svc.Gatherer().Release(staged)
	}
	return out
}

// Backward implements Bag.
//
//hotline:hotpath
func (s *ShardedBag) Backward(gradOut *tensor.Matrix) SparseGrad {
	if s.lastIndices == nil {
		panic("embedding: Backward before Forward")
	}
	return s.BackwardIndices(s.lastIndices, gradOut)
}

// BackwardIndices implements Bag: the storage-independent adjoint plus the
// gradient scatter accounting (each node pre-reduces locally and pushes one
// message per distinct remote row to its owner).
//
//hotline:hotpath
func (s *ShardedBag) BackwardIndices(indices [][]int32, gradOut *tensor.Matrix) SparseGrad {
	if gradOut.Rows != len(indices) || gradOut.Cols != s.Dim {
		panic(fmt.Sprintf("embedding: Backward grad %dx%d want %dx%d",
			gradOut.Rows, gradOut.Cols, len(indices), s.Dim))
	}
	s.svc.RecordScatter(s.TableIdx, indices)
	return bagBackward(&s.bw, indices, gradOut, s.Dim)
}

// sgdRange applies rows [lo, hi) of a sparse SGD update, four rows per pass.
//
//hotline:hotpath
func (s *ShardedBag) sgdRange(sg SparseGrad, lr float32, lo, hi int) {
	i := lo
	for ; i+blockRows <= hi; i += blockRows {
		r := sg.Rows[i : i+blockRows]
		sgd4(s.RowView(int(r[0])), s.RowView(int(r[1])), s.RowView(int(r[2])), s.RowView(int(r[3])),
			sg.Grad.Row(i), sg.Grad.Row(i+1), sg.Grad.Row(i+2), sg.Grad.Row(i+3), lr)
	}
	for ; i < hi; i++ {
		sgd1(s.RowView(int(sg.Rows[i])), sg.Grad.Row(i), lr)
	}
}

// ApplySparseSGD implements Bag: each owner node updates its resident rows.
// Open prefetch windows that staged any updated row are marked dirty first
// (and joined, so no in-flight fetch races the write); the consuming
// forward repairs them.
//
//hotline:mutates-rows
//hotline:hotpath
func (s *ShardedBag) ApplySparseSGD(sg SparseGrad, lr float32) {
	s.windows.MarkDirty(sg.Rows)
	perItem := int64(s.Dim) * 2
	if par.Serial(len(sg.Rows), perItem) {
		s.sgdRange(sg, lr, 0, len(sg.Rows))
	} else {
		par.ForWork(len(sg.Rows), perItem, func(lo, hi int) {
			s.sgdRange(sg, lr, lo, hi)
		})
	}
	// Mirror the new row values to their owner processes (the pre-reduced
	// scatter). No-op on the in-proc transport.
	s.svc.PushUpdates(s.TableIdx, sg.Rows, s.rowAt)
	s.bw.reset()
}

// ApplySparseAdagrad implements Bag: the adaptive update runs on each
// owner-resident row against the shared (globally indexed) accumulator, in
// the same serial row order as the single-node table — bit-identical for
// every node count and placement. Like the SGD path, staged copies of the
// updated rows in open prefetch windows are marked dirty first.
//
//hotline:mutates-rows
//hotline:hotpath
func (s *ShardedBag) ApplySparseAdagrad(st *AdagradState, sg SparseGrad, lr float32) {
	s.windows.MarkDirty(sg.Rows)
	for i, ix := range sg.Rows {
		adagradRow(s.RowView(int(ix)), st.Accum.Row(int(ix)), sg.Grad.Row(i), lr, st.Eps)
	}
	// Only the row values travel: the Adagrad accumulator is coordinator
	// state, so the scatter stays one message per distinct row.
	s.svc.PushUpdates(s.TableIdx, sg.Rows, s.rowAt)
	s.bw.reset()
}

// ResetStepScratch rewinds the backward arena at a step boundary (see
// Table.ResetStepScratch — shadows never see the apply-time rewind).
//
//hotline:hotpath
func (s *ShardedBag) ResetStepScratch() { s.bw.reset() }

// NumRows implements Bag.
func (s *ShardedBag) NumRows() int { return s.Rows }

// EmbedDim implements Bag.
func (s *ShardedBag) EmbedDim() int { return s.Dim }

// SizeBytes implements Bag (the logical footprint; shards add no padding).
func (s *ShardedBag) SizeBytes() int64 { return int64(s.Rows) * int64(s.Dim) * 4 }

// ShadowBag implements Bag: the shadow shares shard storage, the placement
// maps, the service (its accounting is mutex-guarded) AND the prefetch
// window registry — a lookahead window issued on the shadow must be
// visible to the primary bag's sparse updates for dirty-row tracking —
// with private forward state.
func (s *ShardedBag) ShadowBag() Bag {
	sh := &ShardedBag{
		Rows: s.Rows, Dim: s.Dim, TableIdx: s.TableIdx,
		svc: s.svc, shards: s.shards, owner: s.owner, local: s.local,
		windows: s.windows,
	}
	sh.fetchFn = sh.fetchRow
	sh.rowAt = sh.rowViewAt
	return sh
}

// Materialize reassembles the partitioned rows into one contiguous matrix
// (tests and state comparisons).
func (s *ShardedBag) Materialize() *tensor.Matrix {
	out := tensor.New(s.Rows, s.Dim)
	for r := 0; r < s.Rows; r++ {
		copy(out.Row(r), s.RowView(r))
	}
	return out
}

// ShardBags partitions every table across the service, preserving table
// order (table i keeps accounting key i).
func ShardBags(ts Tables, svc *shard.Service) Bags {
	out := make(Bags, len(ts))
	for i, t := range ts {
		out[i] = ShardBag(t, svc, i)
	}
	return out
}
