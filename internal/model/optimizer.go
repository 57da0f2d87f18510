package model

import (
	"slices"

	"hotline/internal/embedding"
	"hotline/internal/nn"
	"hotline/internal/tensor"
)

// Optimizer is a model's update rule: the dense step, the sparse step of
// every table, and whatever per-parameter and per-row state the rule keeps
// between steps. The state belongs to the rule and never to the executor
// that scheduled the passes — Eq. 5 reduces the µ-batch gradients into the
// one update the full mini-batch would have produced, so every executor
// applies the same rule the same way, through Model.ApplyUpdate. A rule is
// built over the model it updates (SetOptimizer); two are in the tree, NewSGD
// (what New installs) and NewAdagrad.
type Optimizer interface {
	// step applies the accumulated dense gradients and every stashed sparse
	// gradient of the rule's model at learning rate lr, then clears the
	// stash. ApplyUpdate calls it holding the parameter lock.
	step(lr float32)
	// state lists the matrices the rule carries from one step to the next,
	// in a fixed order; nil for a rule that keeps none.
	state() []*tensor.Matrix
}

// SetOptimizer replaces m's update rule with the one build returns for it,
// and returns m. It takes the constructor rather than a built rule so that a
// rule's state is always sized for, and bound to, the model it updates. Call
// it before training: a rule starts from zeroed state.
func (m *Model) SetOptimizer(build func(*Model) Optimizer) *Model {
	m.opt = build(m)
	return m
}

// RuleState returns the state m's update rule carries between steps (see
// Optimizer): nothing under SGD, Adagrad's dense accumulators and then one
// row accumulator per table. The matrices are the rule's own, not copies.
func (m *Model) RuleState() []*tensor.Matrix { return m.opt.state() }

// sgd is plain stochastic gradient descent, dense and sparse. It is linear
// in the gradient, so stash entries are applied one by one.
type sgd struct {
	m     *Model
	dense *nn.SGD
}

// NewSGD builds the SGD rule over m. It keeps no state between steps.
func NewSGD(m *Model) Optimizer {
	return &sgd{m: m, dense: nn.NewSGD(m.DenseParams(), 0)}
}

func (r *sgd) state() []*tensor.Matrix { return nil }

// step applies the stash in stash order, each entry through its table's
// ApplySparseSGD.
//
//hotline:hotpath
func (r *sgd) step(lr float32) {
	r.dense.LR = lr
	r.dense.Step()
	m := r.m
	for _, tg := range m.pendingSparse {
		m.Tables[tg.table].ApplySparseSGD(tg.grad, lr*tg.scale)
	}
	m.pendingSparse = m.pendingSparse[:0]
}

// adagrad is dense + sparse Adagrad (the DLRM reference's production
// optimizer): squared-gradient accumulators per dense parameter and per
// embedding row. The row accumulators are indexed by global row (one state
// per table, see embedding.NewAdagradStateFor), so sharded training matches
// the single-node run bit for bit, like the SGD path.
type adagrad struct {
	m     *Model
	dense *nn.Adagrad
	rows  []*embedding.AdagradState
	ws    tensor.Workspace // merge workspace, rewound every step
}

// NewAdagrad builds the Adagrad rule over m, with zeroed accumulators.
func NewAdagrad(m *Model) Optimizer {
	r := &adagrad{m: m, dense: nn.NewAdagrad(m.DenseParams(), 0)}
	r.rows = make([]*embedding.AdagradState, len(m.Tables))
	for t, b := range m.Tables {
		r.rows[t] = embedding.NewAdagradStateFor(b)
	}
	return r
}

func (r *adagrad) state() []*tensor.Matrix {
	s := r.dense.Accumulators()
	for _, rows := range r.rows {
		s = append(s, rows.Accum)
	}
	return s
}

// step applies the stash as ONE adaptive update per table. Because Adagrad
// is non-linear in the gradient, the stash entries of each table — the
// popular and non-popular µ-batches, or the TBSM timesteps — are merged
// into a single combined SparseGrad first (rows unioned in ascending order,
// contributions summed in stash order), exactly the full-mini-batch
// gradient a baseline executor would apply.
//
//hotline:hotpath
func (r *adagrad) step(lr float32) {
	r.dense.LR = lr
	r.dense.Step()
	m := r.m
	r.ws.Reset()
	for t, b := range m.Tables {
		if merged := r.merge(t); merged.Grad != nil {
			b.ApplySparseAdagrad(r.rows[t], merged, lr)
		}
	}
	m.pendingSparse = m.pendingSparse[:0]
}

// merge folds every stash entry of one table into a single combined
// SparseGrad (scales applied). Entries keep their stash order, so the
// per-row addition sequence is deterministic.
func (r *adagrad) merge(table int) embedding.SparseGrad {
	pending := r.m.pendingSparse
	var first *tableGrad
	count, total := 0, 0
	for i := range pending {
		if pending[i].table == table {
			if first == nil {
				first = &pending[i]
			}
			count++
			total += len(pending[i].grad.Rows)
		}
	}
	if first == nil {
		return embedding.SparseGrad{}
	}
	if count == 1 && first.scale == 1 {
		return first.grad
	}
	// Union pass: collect distinct rows in ascending order. Every entry's
	// rows are already sorted, so a presence bitmap over the touched range
	// would also work; the simple merge below stays O(total rows) and
	// allocation-free through the rule's workspace.
	scratch := r.ws.Int32(total)[:0]
	for i := range pending {
		if pending[i].table == table {
			scratch = append(scratch, pending[i].grad.Rows...)
		}
	}
	slices.Sort(scratch)
	rows := slices.Compact(scratch)
	grad := r.ws.Matrix(len(rows), first.grad.Grad.Cols)
	// slot[row] via binary search over the sorted distinct rows (every
	// entry's rows are present by construction).
	for i := range pending {
		tg := &pending[i]
		if tg.table != table {
			continue
		}
		for j, row := range tg.grad.Rows {
			gi, _ := slices.BinarySearch(rows, row)
			dst := grad.Row(gi)
			src := tg.grad.Grad.Row(j)
			if tg.scale == 1 {
				for k := range dst {
					dst[k] += src[k]
				}
			} else {
				for k := range dst {
					dst[k] += tg.scale * src[k]
				}
			}
		}
	}
	return embedding.SparseGrad{Rows: rows, Grad: grad}
}
