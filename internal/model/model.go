package model

import (
	"fmt"
	"sync"

	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/nn"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// Model is a DLRM or TBSM instance.
//
// Forward/backward state (layer outputs, the TBSM sequence scratch, the
// gradient-scale staging) lives in per-instance buffers reused across
// steps, so a steady-state training iteration performs no allocations.
// Matrices returned by Forward are therefore valid only until the next
// Forward call on the same model; shadows own fully private scratch.
type Model struct {
	Cfg data.Config

	Bot   *nn.MLP
	Top   *nn.MLP
	Inter *nn.DotInteraction
	Attn  *nn.Attention // non-nil only for TBSM configs
	// Tables is the sparse parameter set behind the Bag interface: plain
	// single-node tables by default, ShardedBags after ShardEmbeddings.
	Tables embedding.Bags

	// paramMu orders serve forwards against the trainer's writes. A model
	// and all its shadows share one lock, as they share one set of tensors:
	// ApplyUpdate holds the write side, ServePredictInto the read side, and
	// training passes neither — they run on the trainer's own goroutines,
	// which are the only writers.
	paramMu *sync.RWMutex

	// opt is the update rule ApplyUpdate steps: SGD from New, whatever
	// SetOptimizer installed since, nil on a shadow.
	opt Optimizer

	// pendingSparse accumulates sparse gradients across Backward calls
	// until ApplyUpdate or ZeroAll.
	pendingSparse []tableGrad

	// forward caches
	lastBatch    *data.Batch
	lastStepIdx  [][][]int32 // TBSM: per step, per sample index lists for table 0
	lastSeqSteps []*tensor.Matrix

	// reusable scratch
	denseParams []nn.Param       // memoised DenseParams result
	inputsBuf   []*tensor.Matrix // interaction inputs, one slot per vector
	gradScaled  tensor.Matrix    // Backward's scaled-gradient staging
	fws         tensor.Workspace // per-Forward workspace (TBSM sequence state)
	bceGrad     tensor.Matrix    // TrainStep's loss-gradient buffer
}

type tableGrad struct {
	table int
	grad  embedding.SparseGrad
	scale float32
}

// New builds a model with deterministic initial weights derived from seed.
// Two models built from the same config and seed are bit-identical.
func New(cfg data.Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(seed)
	m := &Model{Cfg: cfg}
	m.paramMu = new(sync.RWMutex)
	m.Bot = nn.NewMLP(cfg.BotMLP, true, rng)
	m.Inter = nn.NewDotInteraction(cfg.EmbedDim, cfg.NumTables)
	topSizes := append([]int{m.Inter.OutWidth()}, cfg.TopMLP...)
	m.Top = nn.NewMLP(topSizes, false, rng)
	if cfg.TimeSteps > 1 {
		m.Attn = nn.NewAttention(cfg.EmbedDim, cfg.TimeSteps)
	}
	m.Tables = embedding.NewTables(cfg.ScaledRowsPerTable, cfg.EmbedDim, rng).Bags()
	m.opt = NewSGD(m)
	return m
}

// ShardEmbeddings routes every embedding table through a shard.Service
// (each row owned by one node, with per-node hot-entry device caches). The
// bags take the tables over — rows are not copied — and the model's
// training math is bit-identical before and after: only the simulated row
// ownership and the service's traffic accounting change. It panics if the
// embeddings are already sharded.
func (m *Model) ShardEmbeddings(svc *shard.Service) {
	for t, b := range m.Tables {
		tab, ok := b.(*embedding.Table)
		if !ok {
			panic("model: embeddings already sharded")
		}
		m.Tables[t] = embedding.ShardBag(tab, svc, t)
	}
}

// IsTBSM reports whether the model carries the attention/sequence structure.
func (m *Model) IsTBSM() bool { return m.Attn != nil }

// sparsePrefetcher is implemented by bags that can gather a µ-batch's
// remote rows asynchronously (embedding.ShardedBag).
type sparsePrefetcher interface {
	Prefetch(indices [][]int32)
	AbortPrefetch()
}

// PrefetchSparse issues asynchronous gathers for every embedding access the
// batch will make, on bags that support prefetching. The eventual
// Forward(b) consumes the staged rows; the Hotline executor calls this for
// the non-popular µ-batch before dispatching the popular one — and, in the
// depth-k cross-iteration pipeline, for up to k-1 FUTURE mini-batches
// right after the current sparse update — overlapping the fabric traffic
// with compute. Windows are registered FIFO per bag, and rows a later
// sparse update rewrites are delta-repaired before consumption, so staging
// ahead never changes training state. The TBSM sequence table is skipped
// (its per-timestep index sets are built inside Forward) and everything
// else is a no-op on non-prefetching bags.
//
//hotline:hotpath
func (m *Model) PrefetchSparse(b *data.Batch) {
	for t, bag := range m.Tables {
		if m.IsTBSM() && t == 0 {
			continue
		}
		if p, ok := bag.(sparsePrefetcher); ok {
			p.Prefetch(b.Sparse[t])
		}
	}
}

// AbortPrefetchSparse joins and discards every outstanding prefetch window
// (the whole staged lookahead, however deep). The pipelined executor calls
// it when a lookahead speculated on batches that are not the ones actually
// trained next, so a stale window can never be consumed against a reused
// index buffer.
func (m *Model) AbortPrefetchSparse() {
	for _, bag := range m.Tables {
		if p, ok := bag.(sparsePrefetcher); ok {
			p.AbortPrefetch()
		}
	}
}

// NewShadow returns a model that shares m's parameter storage (dense weights
// and embedding tables) but owns private gradient accumulators, sparse-grad
// stash and forward caches. Parameters are only read during a pass — that
// is the rule every reader lives by: two µ-batches run forward/backward
// concurrently and their gradients are folded back with AbsorbShadow, and a
// serve replica (a shadow too) answers requests beside both. The one moment
// parameters move is ApplyUpdate, which the shadow's ServePredictInto is
// ordered against through the lock it shares with m. The shadow stays valid
// across updates because every rule mutates parameters in place; it carries
// no rule of its own (see ApplyUpdate).
func NewShadow(m *Model) *Model {
	s := &Model{Cfg: m.Cfg}
	s.paramMu = m.paramMu
	s.Bot = m.Bot.Shadow()
	s.Top = m.Top.Shadow()
	s.Inter = nn.NewDotInteraction(m.Cfg.EmbedDim, m.Cfg.NumTables)
	if m.Attn != nil {
		s.Attn = nn.NewAttention(m.Cfg.EmbedDim, m.Cfg.TimeSteps)
	}
	s.Tables = m.Tables.Shadow()
	return s
}

// AbsorbShadow folds a shadow's accumulated gradients into m: dense
// gradients add into m's accumulators in parameter order, and the shadow's
// stashed sparse gradients append after m's own (fixed reduction order, so
// the combined update is deterministic for any worker count).
//
//hotline:hotpath
func (m *Model) AbsorbShadow(s *Model) {
	pm, ps := m.DenseParams(), s.DenseParams()
	if len(pm) != len(ps) {
		panic("model: AbsorbShadow across different architectures")
	}
	for i := range pm {
		tensor.AxpyInto(pm[i].Grad, 1, ps[i].Grad)
	}
	m.pendingSparse = append(m.pendingSparse, s.pendingSparse...) //hotline:allow hotalloc sparse stash; converges to the per-step entry count
	s.pendingSparse = s.pendingSparse[:0]
}

// serveForwarder is implemented by bags with a dedicated read path
// (ShardedBag routes serve traffic into separate counters and bypasses the
// prefetch-window machinery; Table simply skips arming Backward).
type serveForwarder interface {
	ServeForward(indices [][]int32) *tensor.Matrix
}

// bagForward dispatches one table lookup down the training or the serving
// path. Every in-tree bag implements serveForwarder; the Forward fallback
// keeps external Bag implementations working on the serve path too.
//
//hotline:hotpath
func bagForward(b embedding.Bag, indices [][]int32, serve bool) *tensor.Matrix {
	if serve {
		if sf, ok := b.(serveForwarder); ok {
			return sf.ServeForward(indices)
		}
	}
	return b.Forward(indices)
}

// Forward computes the logits (B x 1) for a batch. The returned matrix is
// scratch owned by the top MLP, valid until the next Forward call.
//
//hotline:hotpath
func (m *Model) Forward(b *data.Batch) *tensor.Matrix { return m.forward(b, false) }

// forward is the shared forward pass. With serve set it takes the read-only
// inference path: embedding lookups go through ServeForward (serve-side
// traffic accounting, no prefetch-window interaction) and the batch is not
// cached for Backward — a serve pass between a train Forward and its
// Backward on DIFFERENT instances of the same weights perturbs nothing.
// Dense-layer activations are still instance scratch either way, so serve
// traffic runs on shadows (NewShadow), never on the training instance.
//
//hotline:hotpath
func (m *Model) forward(b *data.Batch, serve bool) *tensor.Matrix {
	if !serve {
		m.lastBatch = b
	}
	m.fws.Reset()
	z0 := m.Bot.Forward(b.Dense)
	if m.inputsBuf == nil {
		m.inputsBuf = make([]*tensor.Matrix, m.Cfg.NumTables+1) //hotline:allow hotalloc lazy one-time input-slice init
	}
	inputs := m.inputsBuf
	inputs[0] = z0
	for t := 0; t < m.Cfg.NumTables; t++ {
		if m.IsTBSM() && t == 0 {
			inputs[t+1] = m.forwardSequence(b, serve)
			continue
		}
		inputs[t+1] = bagForward(m.Tables[t], b.Sparse[t], serve)
	}
	feat := m.Inter.Forward(inputs)
	return m.Top.Forward(feat)
}

// forwardSequence runs the TBSM behaviour-sequence table: one embedding
// lookup per timestep, pooled by the attention layer. Step outputs are
// copied into the per-forward workspace (the sequence table reuses one
// lookup buffer across timesteps) and the per-step index lists are rebuilt
// into reusable slabs.
func (m *Model) forwardSequence(b *data.Batch, serve bool) *tensor.Matrix {
	steps := m.Cfg.TimeSteps
	n := b.Size()
	if m.lastStepIdx == nil {
		m.lastStepIdx = make([][][]int32, steps)
		m.lastSeqSteps = make([]*tensor.Matrix, steps)
	}
	for s := 0; s < steps; s++ {
		idx := m.lastStepIdx[s]
		if cap(idx) < n {
			idx = make([][]int32, n)
		}
		idx = idx[:n]
		slab := m.fws.Int32(n)
		for i := 0; i < n; i++ {
			seq := b.Sparse[0][i]
			if len(seq) != steps {
				panic(fmt.Sprintf("model: sample %d sequence len %d want %d", i, len(seq), steps))
			}
			slab[i] = seq[s]
			idx[i] = slab[i : i+1 : i+1]
		}
		m.lastStepIdx[s] = idx
		out := bagForward(m.Tables[0], idx, serve)
		seqOut := m.fws.Matrix(out.Rows, out.Cols)
		copy(seqOut.Data, out.Data)
		m.lastSeqSteps[s] = seqOut
	}
	return m.Attn.Forward(m.lastSeqSteps)
}

// Backward accumulates gradients for dL/dlogits. Dense parameter gradients
// add into the MLP accumulators; sparse gradients are stashed (scaled by
// scale) until ApplyUpdate. Multiple Backward calls between updates model
// µ-batch accumulation.
//
//hotline:hotpath
func (m *Model) Backward(gradLogits *tensor.Matrix, scale float32) {
	if m.lastBatch == nil {
		panic("model: Backward before Forward")
	}
	g := gradLogits
	if scale != 1 {
		g = m.gradScaled.CopyFrom(gradLogits)
		tensor.Scale(g, scale)
	}
	gFeat := m.Top.Backward(g)
	gInputs := m.Inter.Backward(gFeat)
	m.Bot.Backward(gInputs[0])
	for t := 0; t < m.Cfg.NumTables; t++ {
		gEmb := gInputs[t+1]
		if m.IsTBSM() && t == 0 {
			stepGrads := m.Attn.Backward(gEmb)
			for s, sg := range stepGrads {
				spg := m.Tables[0].BackwardIndices(m.lastStepIdx[s], sg)
				m.pendingSparse = append(m.pendingSparse, tableGrad{table: 0, grad: spg, scale: 1}) //hotline:allow hotalloc sparse stash; converges to the per-step entry count
			}
			continue
		}
		spg := m.Tables[t].BackwardIndices(m.lastBatch.Sparse[t], gEmb)
		m.pendingSparse = append(m.pendingSparse, tableGrad{table: t, grad: spg, scale: 1}) //hotline:allow hotalloc sparse stash; converges to the per-step entry count
	}
}

// DenseParams returns every dense trainable parameter. The slice is
// memoised — parameter storage is stable for the life of the model — so
// per-step optimizer and gradient-zeroing paths allocate nothing.
func (m *Model) DenseParams() []nn.Param {
	if m.denseParams == nil {
		m.denseParams = append(m.Bot.Params(), m.Top.Params()...)
	}
	return m.denseParams
}

// stepScratchResetter is implemented by bags whose per-step scratch must be
// rewound at the step boundary (shadow bags never see the apply-time
// rewind — their gradients are applied through the primary tables).
type stepScratchResetter interface {
	ResetStepScratch()
}

// ZeroAll clears dense gradient accumulators, drops stashed sparse grads
// and rewinds the bags' step scratch (every executor calls it once per
// step on each model it drives, including shadows).
func (m *Model) ZeroAll() {
	nn.ZeroGrads(m.DenseParams())
	m.pendingSparse = m.pendingSparse[:0]
	for _, b := range m.Tables {
		if r, ok := b.(stepScratchResetter); ok {
			r.ResetStepScratch()
		}
	}
}

// ApplyUpdate applies one training step's combined update (Eq. 5) at
// learning rate lr — the model's rule (Optimizer) steps the dense
// parameters, then every stashed sparse gradient, and clears the stash —
// holding the write side of the parameter lock throughout. It is the update
// bracket: every write to a dense weight or an embedding row after
// construction happens in here, together with what must be ordered with
// those writes — WindowQueue.MarkDirty and, on a socket fabric, the scatter
// push (a serve fetch issued after the bracket queues behind the push on the
// owner's stream). A serve forward (ServePredictInto, on any shadow) holds
// the read side, so it sees the parameters of exactly one step boundary; the
// wait here is for the at most one forward per serve replica already in
// flight. The lock is released when the update panics, so a recovered
// trainer panic does not wedge serving. A shadow carries no rule — its
// gradients reach the parameters through AbsorbShadow — and panics here.
//
//hotline:hotpath
func (m *Model) ApplyUpdate(lr float32) {
	if m.opt == nil {
		panic("model: ApplyUpdate on a shadow; absorb it into the model it shadows and update that")
	}
	m.paramMu.Lock()
	defer m.paramMu.Unlock()
	m.opt.step(lr)
}

// TrainStep runs one standard full-mini-batch iteration under the model's
// rule (the baseline executor) and returns the mean BCE loss.
func (m *Model) TrainStep(b *data.Batch, lr float32) float64 {
	m.ZeroAll()
	logits := m.Forward(b)
	loss, grad := nn.BCEWithLogitsInto(&m.bceGrad, logits, b.Labels, nn.ReduceMean)
	m.Backward(grad, 1)
	m.ApplyUpdate(lr)
	return loss
}

// Predict returns click probabilities for a batch (no gradient state kept).
func (m *Model) Predict(b *data.Batch) []float32 {
	logits := m.Forward(b)
	out := make([]float32, logits.Rows)
	for i := range out {
		out[i] = nn.SigmoidScalar(logits.Data[i])
	}
	return out
}

// ServePredict returns click probabilities via the read-only serving path:
// embedding lookups are booked as serve traffic and never touch prefetch
// windows or backward state. Run it on a shadow (NewShadow) when a training
// instance shares the weights.
func (m *Model) ServePredict(b *data.Batch) []float32 {
	return m.ServePredictInto(nil, b)
}

// ServePredictInto is ServePredict writing into dst (grown as needed), so a
// steady-state request loop allocates nothing. It holds the read side of the
// parameter lock for the length of the forward — released on a panic too, an
// out-of-range index panics by design — so the answer is computed from the
// parameters of one step boundary, whatever the trainer is doing meanwhile.
func (m *Model) ServePredictInto(dst []float32, b *data.Batch) []float32 {
	m.paramMu.RLock()
	defer m.paramMu.RUnlock()
	logits := m.forward(b, true)
	if cap(dst) < logits.Rows {
		dst = make([]float32, logits.Rows)
	}
	dst = dst[:logits.Rows]
	for i := range dst {
		dst[i] = nn.SigmoidScalar(logits.Data[i])
	}
	return dst
}

// ParameterCounts returns (dense, sparse) scalar parameter counts
// (the paper Table II inventory, at scaled table sizes).
func (m *Model) ParameterCounts() (dense, sparse int64) {
	dense = int64(nn.NumParams(m.DenseParams()))
	for _, t := range m.Tables {
		sparse += int64(t.NumRows()) * int64(t.EmbedDim())
	}
	return dense, sparse
}

// DenseStateEqual reports whether two models have bit-identical dense
// parameters (used by parity tests).
func DenseStateEqual(a, b *Model) bool {
	pa, pb := a.DenseParams(), b.DenseParams()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value) {
			return false
		}
	}
	return true
}

// SparseStateEqual reports whether two models have bit-identical embedding
// tables (physical layout — sharded or not — does not matter).
func SparseStateEqual(a, b *Model) bool {
	return embedding.BagsEqual(a.Tables, b.Tables)
}

// MaxStateDiff returns the largest absolute parameter difference between two
// models across dense and sparse state (0 for bit-identical models).
func MaxStateDiff(a, b *Model) float64 {
	var max float64
	pa, pb := a.DenseParams(), b.DenseParams()
	for i := range pa {
		if d := float64(tensor.MaxAbsDiff(pa[i].Value, pb[i].Value)); d > max {
			max = d
		}
	}
	if d := embedding.MaxAbsDiffBags(a.Tables, b.Tables); d > max {
		max = d
	}
	return max
}
