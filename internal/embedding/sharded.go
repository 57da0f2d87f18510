package embedding

import (
	"fmt"

	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// ShardedBag is the multi-node embedding-bag: a Table whose every lookup and
// gradient push is routed through a shard.Service — each row owned by one
// node under the service's placement policy (round-robin by default;
// capacity-weighted and hot-row-aware placements move ownership without
// touching any math) — for device-cache simulation, all-to-all accounting
// and, on a socket fabric, the real row traffic to the node processes.
//
// The rows themselves stay in the table the bag was built from: it is the
// coordinator's authoritative mirror, and every kernel (pooling, adjoint,
// sparse update) is the table's own. The operator math is therefore
// bit-identical to the single-node Table for every node count and placement;
// ownership decides routing and accounting, never values.
// TestShardedBagBitIdentical enforces this for node counts {1,2,4,8}.
//
// Prefetch issues a µ-batch's fabric fetches ahead of time through the
// service's gather engine; the Forward that takes the window blocks only on
// what the overlap failed to hide and reads the remote rows from the
// window's staging buffer. Up to pipeline-depth windows can be open at once
// (the depth-k cross-iteration pipeline): each instance keeps the windows it
// prefetched in order and its forwards take them oldest first, sparse
// updates (through any instance of the table) mark the staged rows they
// rewrite as dirty (shard.Service.MarkDirty), and the consuming Forward
// delta-repairs them first — so the values applied are bit-identical to a
// synchronous gather at consume time, for any depth.
type ShardedBag struct {
	// TableIdx keys the service's cache and traffic accounting.
	TableIdx int

	svc *shard.Service
	// tab is the row store and the kernels: the table ShardBag took over (a
	// shadow holds a shadow of it — shared rows, private forward state and
	// backward arena). A named field, not an embed: a promoted Shadow or Clone
	// would hand out bags that bypass the routing.
	tab *Table

	// staged holds the windows this instance prefetched and has not yet
	// consumed, oldest first: one entry per Prefetch, nil where the plan
	// staged nothing.
	staged []*shard.Staging

	// rowAt is the row view the table registers and every scatter push sends
	// from, bound once: a per-call method value would allocate.
	rowAt shard.RowAt
}

// ShardBag routes a table through the service under its placement policy.
// The bag takes the table over — it copies nothing, t's rows are the bag's
// rows — so a caller that keeps using t aliases the bag's parameters and
// bypasses its routing; Clone first to keep an independent reference. The
// table must be as wide as the service's rows (shard.Config.Dim).
func ShardBag(t *Table, svc *shard.Service, tableIdx int) *ShardedBag {
	if d := svc.Config().Dim(); t.Dim != d {
		panic(fmt.Sprintf("embedding: table %d is %d wide, the shard service's rows %d", tableIdx, t.Dim, d))
	}
	s := &ShardedBag{TableIdx: tableIdx, svc: svc, tab: t}
	s.rowAt = s.rowViewAt
	// Declare the table to the fabric: the service sizes its routing state
	// for it and copies every staged row from its view, and on a
	// multi-process transport this is the initial shard sync (every row is
	// pushed to its owner node), so worker stores serve exactly the bits the
	// table holds.
	svc.RegisterTable(tableIdx, t.Rows, s.rowAt)
	return s
}

// Service returns the shard service the bag routes through.
func (s *ShardedBag) Service() *shard.Service { return s.svc }

// RowView implements Bag: a live view of row r.
func (s *ShardedBag) RowView(r int) []float32 { return s.tab.W.Row(r) }

// Prefetch issues the asynchronous gather of a µ-batch's remote rows: the
// service plans the window (advancing cache state and counters exactly like
// a synchronous gather) and its engine streams the rows into the window's
// staging buffer while the caller computes something else — the Hotline
// executor overlaps the non-popular gather with the popular µ-batch inside
// an iteration, and the depth-k cross-iteration pipeline issues the next
// k-1 mini-batches' gathers right after the current sparse update so they
// stream through the dense step and the following iterations. The
// instance's forwards take its windows in the order it prefetched them, so
// each Prefetch must be followed, in order, by the Forward of the same
// indices.
//
//hotline:hotpath
func (s *ShardedBag) Prefetch(indices [][]int32) {
	checkIndices(indices, s.tab.Rows)
	w := s.svc.PlanGather(s.TableIdx, indices)
	if w != nil {
		s.svc.Gatherer().Submit(w)
	}
	s.staged = append(s.staged, w) //hotline:allow hotalloc the staged list grows to the pipeline depth once and is reused
}

// AbortPrefetch joins and discards every window this instance prefetched and
// has not consumed (their accounting already happened — wasted prefetches).
// The executor calls it on the instance that prefetched when a pipelined
// lookahead turns out not to match the batches actually trained, so no
// forward consumes a window staged for another batch.
func (s *ShardedBag) AbortPrefetch() {
	for _, w := range s.staged {
		if w != nil {
			w.Await()
			w.Release()
		}
	}
	clear(s.staged)
	s.staged = s.staged[:0]
}

// rowViewAt is RowView with the fabric's signature (bound once into rowAt).
//
//hotline:hotpath
func (s *ShardedBag) rowViewAt(row int32) []float32 { return s.tab.W.Row(int(row)) }

// srcRow locates the values a lookup of row ix pools: the staged copy when
// the window fetched (or dequantized) the row — bit-identical to the table
// row unless the row is served from the warm tier — and the table row
// otherwise.
//
//hotline:hotpath
func (s *ShardedBag) srcRow(ix int32, staged *shard.Staging) []float32 {
	if v, ok := staged.Lookup(ix); ok {
		return v
	}
	return s.tab.W.Row(int(ix))
}

// stagedRange is Table.fwdRange reading the window's rows from its staging
// buffer: the same sums in the same lookup order. A small bag stays on the Go
// loop, tensor.AddRow: srcRow's slot-table probe is a call on every row, so
// there is no bag list for tensor.AddSmallBags to walk.
//
//hotline:hotpath
func (s *ShardedBag) stagedRange(out *tensor.Matrix, indices [][]int32, staged *shard.Staging, lo, hi int) {
	need := kernelRows(s.tab.Dim)
	var rows [rowBlock][]float32
	for b := lo; b < hi; b++ {
		orow, idxs := out.Row(b), indices[b]
		if len(idxs) < need {
			for _, ix := range idxs {
				tensor.AddRow(orow, s.srcRow(ix, staged))
			}
			continue
		}
		for len(idxs) > 0 {
			c := min(len(idxs), rowBlock)
			for q, ix := range idxs[:c] {
				rows[q] = s.srcRow(ix, staged)
			}
			tensor.AddRows(orow, rows[:c])
			idxs = idxs[c:]
		}
	}
}

// pooled computes the pooled lookup of lookups lookups into the instance's
// forward scratch, reading the rows the window staged (nil or empty: none)
// from its buffer and every other row from the table.
//
//hotline:hotpath
func (s *ShardedBag) pooled(indices [][]int32, lookups int, staged *shard.Staging) *tensor.Matrix {
	if staged == nil || staged.Rows() == 0 {
		return s.tab.pooled(indices, lookups)
	}
	out := s.tab.fwdOut.Resize(len(indices), s.tab.Dim)
	perItem := poolWork(len(indices), lookups, s.tab.Dim)
	if par.Serial(len(indices), perItem) {
		s.stagedRange(out, indices, staged, 0, len(indices))
	} else {
		par.ForWork(len(indices), perItem, func(lo, hi int) {
			s.stagedRange(out, indices, staged, lo, hi)
		})
	}
	return out
}

// Forward implements Bag: the sum-pooled lookup with shard routing. The
// service accounting runs as a serial pre-pass (cache state must evolve in
// batch order); the arithmetic then shards across workers exactly like the
// single-node operator. When the instance has prefetched windows it takes
// the oldest — blocking only on the exposed remainder of the gather, with
// rows dirtied by intervening sparse updates delta-repaired first (or served
// stale under Service.SetStaleReads); an entry whose plan staged nothing is
// not planned again. With nothing prefetched the forward plans and stages
// its fabric rows synchronously — the measured baseline the overlap is
// compared against. The consumed window goes back to the engine's pool.
//
//hotline:hotpath
func (s *ShardedBag) Forward(indices [][]int32) *tensor.Matrix {
	lookups := checkIndices(indices, s.tab.Rows)
	var w *shard.Staging
	if len(s.staged) > 0 {
		w = s.staged[0]
		n := copy(s.staged, s.staged[1:])
		s.staged[n] = nil
		s.staged = s.staged[:n]
		if w != nil {
			w.Consume()
		}
	} else if w = s.svc.PlanGather(s.TableIdx, indices); w != nil {
		s.svc.Gatherer().GatherSync(w)
	}
	out := s.pooled(indices, lookups, w)
	if w != nil {
		w.Release()
	}
	s.tab.lastIndices = indices
	return out
}

// ServeForward is the online-inference read path: the pooled lookup with
// serve-side routing. Unlike Forward it is strictly read-only with respect
// to training machinery — it never consumes a prefetch window (open
// lookahead windows belong to the training stream and must survive a
// concurrent predict), never arms Backward, and books its traffic into the
// service's serve counters (ServeSnapshot) so training traffic fractions
// stay clean. It reads the shared device caches without writing them: a miss
// admits nothing, so the caches keep the rows the training schedule chose
// and the trainer's counts do not depend on request traffic. (Request traffic used to warm the caches like training;
// that coupling is gone, and no served value depended on it.) In one
// address space with untiered caches the rows are read directly from the
// table — the accounting pass prices the fabric gather; no staging copy is
// needed for a read that applies no delta repair.
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
	lookups := checkIndices(indices, s.tab.Rows)
	var w *shard.Staging
	if s.svc.Multiproc() || s.svc.Quantized() {
		// On a real fabric the read path must actually cross it: stage the
		// remote rows synchronously from their owner processes (timed into
		// the serve-side wall meter) and read the pooled values from the
		// staging buffer. Precision-tiered caches stage too — warm-tier hits
		// must be served through the fused dequantize-gather, not read exact
		// from the mirror.
		if w = s.svc.PlanServeGather(s.TableIdx, indices); w != nil {
			s.svc.ServeGatherSync(w)
		}
	} else {
		s.svc.RecordServeGather(s.TableIdx, indices)
	}
	out := s.pooled(indices, lookups, w)
	if w != nil {
		w.Release()
	}
	return out
}

// Backward implements Bag: the table's adjoint plus the gradient scatter
// accounting (each node pre-reduces locally and pushes one message per
// distinct remote row to its owner).
//
//hotline:hotpath
func (s *ShardedBag) Backward(gradOut *tensor.Matrix) SparseGrad {
	sg := s.tab.Backward(gradOut)
	s.svc.RecordScatter(s.TableIdx, s.tab.lastIndices)
	return sg
}

// BackwardIndices implements Bag: Backward against an explicit index set.
//
//hotline:hotpath
func (s *ShardedBag) BackwardIndices(indices [][]int32, gradOut *tensor.Matrix) SparseGrad {
	sg := s.tab.BackwardIndices(indices, gradOut)
	s.svc.RecordScatter(s.TableIdx, indices)
	return sg
}

// ApplySparseSGD implements Bag: the table's update between the two halves
// of the fabric protocol. Open prefetch windows that staged any updated row
// are marked dirty first (and joined, so no in-flight fetch races the
// write; the consuming forward repairs them), and the new row values are
// mirrored to their owner processes afterwards (the pre-reduced scatter; a
// no-op on the in-proc transport).
//
//hotline:mutates-rows
//hotline:hotpath
func (s *ShardedBag) ApplySparseSGD(sg SparseGrad, lr float32) {
	s.svc.MarkDirty(s.TableIdx, sg.Rows)
	s.tab.ApplySparseSGD(sg, lr)
	s.svc.PushUpdates(s.TableIdx, sg.Rows, s.rowAt)
}

// ApplySparseAdagrad implements Bag: the table's adaptive update against the
// (globally indexed) accumulator, bracketed like the SGD path. Only the row
// values travel: the Adagrad accumulator is coordinator state, so the
// scatter stays one message per distinct row.
//
//hotline:mutates-rows
//hotline:hotpath
func (s *ShardedBag) ApplySparseAdagrad(st *AdagradState, sg SparseGrad, lr float32) {
	s.svc.MarkDirty(s.TableIdx, sg.Rows)
	s.tab.ApplySparseAdagrad(st, sg, lr)
	s.svc.PushUpdates(s.TableIdx, sg.Rows, s.rowAt)
}

// ResetStepScratch rewinds the backward arena at a step boundary (see
// Table.ResetStepScratch — shadows never see the apply-time rewind).
//
//hotline:hotpath
func (s *ShardedBag) ResetStepScratch() { s.tab.ResetStepScratch() }

// NumRows implements Bag.
func (s *ShardedBag) NumRows() int { return s.tab.Rows }

// EmbedDim implements Bag.
func (s *ShardedBag) EmbedDim() int { return s.tab.Dim }

// SizeBytes implements Bag.
func (s *ShardedBag) SizeBytes() int64 { return s.tab.SizeBytes() }

// ShadowBag implements Bag: the shadow shares the rows and the service (its
// accounting is mutex-guarded, and its MarkDirty reaches every open window of
// the table, so the primary bag's sparse updates repair what a shadow
// prefetched), with private forward state and prefetch windows.
func (s *ShardedBag) ShadowBag() Bag {
	sh := &ShardedBag{TableIdx: s.TableIdx, svc: s.svc, tab: s.tab.Shadow()}
	sh.rowAt = sh.rowViewAt
	return sh
}

// Materialize copies the rows into a fresh matrix (tests and state
// comparisons).
func (s *ShardedBag) Materialize() *tensor.Matrix { return s.tab.W.Clone() }
