package embedding

import "hotline/internal/tensor"

// Bag is the embedding-bag operator: sum-pooled multi-hot lookups with
// deterministic sparse gradients and in-place SGD. Two implementations
// exist — the single-node Table and the multi-node ShardedBag — and they
// are bit-identical on every input: the models above never care where a row
// physically lives.
type Bag interface {
	// Forward performs the sum-pooled bag lookup for indices[b] per sample.
	Forward(indices [][]int32) *tensor.Matrix
	// ServeForward is Forward on the online-inference read path: it never
	// arms Backward and leaves the training-side state (prefetch windows,
	// device caches, training counters) alone. Serve replicas call it on
	// shadows.
	ServeForward(indices [][]int32) *tensor.Matrix
	// Backward folds the pooled output gradient back onto the rows of the
	// last Forward call.
	Backward(gradOut *tensor.Matrix) SparseGrad
	// BackwardIndices is Backward against an explicit index set.
	BackwardIndices(indices [][]int32, gradOut *tensor.Matrix) SparseGrad
	// ApplySparseSGD performs W[row] -= lr·grad for every row in sg.
	ApplySparseSGD(sg SparseGrad, lr float32)
	// ApplySparseAdagrad performs the adaptive per-row update
	// G[row] += g², W[row] -= lr·g/√(G[row]+eps) against a globally-indexed
	// accumulator (see NewAdagradStateFor); sharded and single-node bags
	// produce bit-identical state. Pass the full mini-batch gradient — the
	// step is non-linear in g.
	ApplySparseAdagrad(st *AdagradState, sg SparseGrad, lr float32)
	// ResetStepScratch rewinds the per-step backward scratch at a step
	// boundary; a shadow's gradients are applied through its primary, so
	// the apply-time rewind never reaches it.
	ResetStepScratch()
	// NumRows returns the table's row count.
	NumRows() int
	// EmbedDim returns the embedding dimension.
	EmbedDim() int
	// SizeBytes returns the parameter footprint.
	SizeBytes() int64
	// RowView returns one row's weights (a live view, not a copy).
	RowView(r int) []float32
	// ShadowBag returns a weight-sharing shadow with private forward state,
	// for concurrent read-only passes against the same parameters.
	ShadowBag() Bag
}

// Bags is a model's full sparse parameter set behind the Bag interface, one
// bag per categorical feature.
type Bags []Bag

// Bags adapts concrete Tables to the interface slice.
func (ts Tables) Bags() Bags {
	out := make(Bags, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// Shadow returns weight-sharing shadows of every bag.
func (bs Bags) Shadow() Bags {
	out := make(Bags, len(bs))
	for i, b := range bs {
		out[i] = b.ShadowBag()
	}
	return out
}

// SizeBytes returns the total sparse footprint.
func (bs Bags) SizeBytes() int64 {
	var n int64
	for _, b := range bs {
		n += b.SizeBytes()
	}
	return n
}

// BagsEqual reports whether two bag sets hold bit-identical weights,
// regardless of their physical layout (a sharded set can equal a
// single-node set).
func BagsEqual(a, b Bags) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].NumRows() != b[i].NumRows() || a[i].EmbedDim() != b[i].EmbedDim() {
			return false
		}
		for r := 0; r < a[i].NumRows(); r++ {
			ra, rb := a[i].RowView(r), b[i].RowView(r)
			for k := range ra {
				if ra[k] != rb[k] {
					return false
				}
			}
		}
	}
	return true
}

// MaxAbsDiffBags returns the largest absolute weight difference between two
// bag sets of identical shape.
func MaxAbsDiffBags(a, b Bags) float64 {
	var max float64
	for i := range a {
		for r := 0; r < a[i].NumRows(); r++ {
			ra, rb := a[i].RowView(r), b[i].RowView(r)
			for k := range ra {
				d := float64(ra[k] - rb[k])
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	return max
}
