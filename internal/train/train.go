package train

import (
	"fmt"

	"hotline/internal/accel"
	"hotline/internal/data"
	"hotline/internal/metrics"
	"hotline/internal/model"
	"hotline/internal/nn"
	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// Trainer is the one executor interface: it trains on a mini-batch and may
// stage the batches that follow it. Training state is bit-identical for
// every lookahead — staged rows that later sparse updates rewrite are
// delta-repaired before use — so how far ahead a caller feeds a trainer
// changes only what overlaps, never what is computed.
type Trainer interface {
	Name() string
	// Model exposes the trained model for evaluation.
	Model() *model.Model
	// Lookahead returns how many batches ahead the executor stages
	// (pipeline depth minus one; 0 means it stages nothing).
	Lookahead() int
	// StepLookahead trains on b and returns the mean BCE loss; ahead holds
	// the following batches in stream order (it may be shorter than
	// Lookahead() near the end of the stream, entries beyond it are
	// ignored, and nil is always valid).
	StepLookahead(b *data.Batch, ahead []*data.Batch) float64
}

// StepAll trains t on batches in stream order at the trainer's own depth:
// step i is handed the Lookahead() batches that follow it. before, when
// non-nil, runs ahead of step i (chaos schedules, serve probes, mid-run
// evaluation). It returns every step's loss.
func StepAll(t Trainer, batches []*data.Batch, before func(i int)) []float64 {
	k := t.Lookahead()
	losses := make([]float64, 0, len(batches))
	for i, b := range batches {
		if before != nil {
			before(i)
		}
		losses = append(losses, t.StepLookahead(b, batches[i+1:min(i+1+k, len(batches))]))
	}
	return losses
}

// DefaultDepth is the pipeline depth NewHotline starts an executor with, and
// the depth a measurement that is given none prices: the classic
// cross-iteration pipeline, one mini-batch of lookahead. An executor's own
// depth is its Depth field.
const DefaultDepth = 2

// Baseline is the standard full-mini-batch executor: every step is
// Model.TrainStep under the model's update rule (model.Optimizer).
type Baseline struct {
	M  *model.Model
	LR float32
}

// NewBaseline wraps a model in the standard executor.
func NewBaseline(m *model.Model, lr float32) *Baseline { return &Baseline{M: m, LR: lr} }

// Name implements Trainer.
func (t *Baseline) Name() string { return "baseline" }

// Model implements Trainer.
func (t *Baseline) Model() *model.Model { return t.M }

// Lookahead implements Trainer: the baseline stages nothing.
func (t *Baseline) Lookahead() int { return 0 }

// Step is StepLookahead(b, nil).
//
//hotline:hotpath
func (t *Baseline) Step(b *data.Batch) float64 { return t.StepLookahead(b, nil) }

// StepLookahead implements Trainer; the baseline ignores the batches ahead.
//
//hotline:hotpath
func (t *Baseline) StepLookahead(b *data.Batch, _ []*data.Batch) float64 {
	return t.M.TrainStep(b, t.LR)
}

// stagedBatch is one slot of the executor's lookahead ring: a future
// mini-batch with its copied classification, the materialised non-popular
// µ-batch and whether its fabric gathers are already in flight. Slots (and
// their buffers) are reused across steps.
type stagedBatch struct {
	batch      *data.Batch
	prefetched bool
	popIdx     []int
	nonIdx     []int
	sub        *data.Batch // materialised non-popular µ-batch (nil when degenerate)
	// subBuf backs sub. Each ring slot owns one buffer: a slot's previous
	// subset is consumed (passes complete) before the slot is restaged, so
	// the Depth buffers cover the whole pipeline without copies.
	subBuf data.Batch
}

// HotlineTrainer is the µ-batch executor: the accelerator classifies each
// mini-batch, the popular µ-batch "runs first" (GPU in the paper), the
// non-popular µ-batch follows, and one combined update is applied — at
// parity with the baseline's gradients.
//
// The executor is pipelined across iterations with a configurable depth k
// (Depth, default 2): at the END of each step — after the sparse update,
// exactly when the paper's accelerator classifies ahead while the GPUs
// train — it runs the accelerator's learning + classification for up to
// k-1 future mini-batches and, on a sharded service, issues their
// non-popular µ-batches' fabric gathers, so up to k gather
// windows stream concurrently with compute. Training state is bit-identical
// to the unpipelined executor for every depth: the EAL sees batches in the
// same order (each lookahead batch's learn/classify pair runs in stream
// order), and staged rows that a later sparse update rewrites are
// delta-repaired from their owner before the consuming forward
// (shard.WindowQueue) — unless the service opts into stale reads, which
// trades exactness for the repair traffic and is measured, not assumed.
//
// Step scratch (µ-batch buffers, classification copies, loss gradients,
// the lookahead ring) is reused across steps; the steady-state loop
// performs no allocations at Parallelism(1) for any depth.
type HotlineTrainer struct {
	M   *model.Model
	LR  float32
	Acc *accel.Accelerator

	// Depth is the pipeline depth k >= 1: how many gather windows may be
	// in flight at once — the one the current iteration consumes plus up
	// to k-1 staged for future mini-batches. Depth 1 therefore degenerates
	// to synchronous staged gathers (the single window is issued at
	// consume time, so nothing overlaps — the synchronous ablation); depth
	// 2 is the classic cross-iteration pipeline. At depth >= 2 on a sharded
	// service the non-popular µ-batch's fabric gather streams while compute
	// runs — within the iteration when a step gets no batches ahead, across
	// iterations otherwise. Training state is bit-identical for every depth
	// (TestOverlapDeterminism, TestPipelinedOverlapDeterminism); only the
	// measured exposed-gather time changes. Changing it mid-training aborts
	// any staged lookahead (set it before training for clean measurements).
	Depth int

	// LearnSamples is how many initial inputs feed the EAL before the
	// learning phase is considered warm (the paper samples ~5%% of the
	// first epoch; the scaled datasets need a couple thousand inputs).
	LearnSamples int
	seenSamples  int

	// shadow shares M's parameters with private gradient state so the
	// non-popular µ-batch can run concurrently with the popular one.
	shadow *model.Model

	// Shard is non-nil when the embeddings run on a sharded service (see
	// NewHotlineSharded); its snapshot exposes the measured cache and
	// all-to-all traffic of the run.
	Shard *shard.Service

	// stats
	PopularInputs, TotalInputs int64

	// step scratch
	popSub           data.Batch
	popGrad, nonGrad tensor.Matrix

	// lookahead ring: ring[(head+j) % Depth] is the j-th staged batch;
	// staged counts occupied slots (at most Depth-1 between steps — the
	// remaining slot serves the batch currently training, which a step
	// stages itself when the lookahead did not).
	ring   []stagedBatch
	head   int
	staged int
}

// NewHotline wraps a model in the Hotline executor with a default
// accelerator configuration at DefaultDepth. The update rule is the model's
// (model.Optimizer): the executor applies it at LR, whatever LR is when the
// step ends, and keeps no optimizer state of its own.
func NewHotline(m *model.Model, lr float32) *HotlineTrainer {
	cfg := accel.DefaultConfig()
	return &HotlineTrainer{
		M: m, LR: lr, Acc: accel.New(cfg), LearnSamples: 1536,
		Depth: DefaultDepth,
	}
}

// Name implements Trainer.
func (t *HotlineTrainer) Name() string { return "hotline" }

// Model implements Trainer.
func (t *HotlineTrainer) Model() *model.Model { return t.M }

// PopularFraction reports the classified popular-input fraction so far.
func (t *HotlineTrainer) PopularFraction() float64 {
	if t.TotalInputs == 0 {
		return 0
	}
	return float64(t.PopularInputs) / float64(t.TotalInputs)
}

// learn feeds one mini-batch through the accelerator's learning phase
// (initial warm-up, then periodic 5% re-sampling).
//
//hotline:hotpath
func (t *HotlineTrainer) learn(b *data.Batch) {
	if t.seenSamples < t.LearnSamples {
		t.Acc.LearnBatch(b)
		t.seenSamples += b.Size()
	} else {
		t.Acc.MaybeLearn(b)
	}
}

// Step is StepLookahead(b, nil): segregate, run both µ-batches, update
// once, stage nothing.
//
//hotline:hotpath
func (t *HotlineTrainer) Step(b *data.Batch) float64 { return t.StepLookahead(b, nil) }

// Lookahead implements Trainer: the executor stages Depth-1 batches ahead.
func (t *HotlineTrainer) Lookahead() int { return t.depth() - 1 }

// depth normalises the public Depth knob.
//
//hotline:hotpath
func (t *HotlineTrainer) depth() int {
	if t.Depth < 1 {
		return 1
	}
	return t.Depth
}

// StepLookahead implements Trainer: a full training step on b, then the
// lookahead — accelerator learning + classification + fabric prefetch for
// every not-yet-staged batch of ahead, up to Depth-1 of them. See the type
// comment for the determinism argument.
//
//hotline:hotpath
func (t *HotlineTrainer) StepLookahead(b *data.Batch, ahead []*data.Batch) float64 {
	if len(t.ring) != t.depth() {
		// First step, or the Depth knob moved: restart the pipeline.
		t.abortStaged()
		t.ring = make([]stagedBatch, t.depth()) //hotline:allow hotalloc pipeline restart is cold; the ring is reused until Depth changes
		t.head = 0
	}

	if t.staged == 0 || t.ring[t.head].batch != b {
		// Speculation miss (or cold start): staged windows must never be
		// consumed against weights that moved since, so the whole lookahead
		// is aborted and b staged fresh — learned, classified and, past
		// depth 1, its fabric gathers issued before the popular µ-batch is
		// dispatched, so the async engine streams the remote rows into
		// staging while the popular pass computes and the shadow's Forward
		// blocks only on whatever stayed exposed.
		t.abortStaged()
		t.stage(b)
	}
	// The head slot learned, classified and (when sharded) prefetched b,
	// just now or at the end of an earlier step.
	slot := &t.ring[t.head]
	t.head = (t.head + 1) % len(t.ring)
	t.staged--
	pop, non, nonSub := slot.popIdx, slot.nonIdx, slot.sub
	slot.batch, slot.sub, slot.prefetched = nil, nil, false
	t.PopularInputs += int64(len(pop))
	t.TotalInputs += int64(b.Size())

	n := b.Size()
	invN := float32(1) / float32(n)
	t.M.ZeroAll()
	var totalLoss float64
	if len(pop) == 0 || len(non) == 0 {
		// Degenerate split: the one µ-batch is b itself — every sample, in
		// order — and runs on the primary model. An empty batch runs none.
		if n > 0 {
			totalLoss = passInto(t.M, b, invN, &t.popGrad)
		}
	} else {
		// Popular µ-batch on the primary model (it is dispatched to the
		// GPUs immediately in the real system); non-popular on a
		// weight-sharing shadow. Both passes only read parameters, so they
		// run concurrently when workers allow, and the gradients reduce in
		// fixed order — popular, then non-popular — which keeps the result
		// bit-identical for every worker count and, per Eq. 5, equal to the
		// baseline's full-mini-batch update.
		if t.shadow == nil {
			t.shadow = model.NewShadow(t.M)
		}
		t.shadow.ZeroAll()
		totalLoss = t.runSplit(b, pop, nonSub, invN)
	}
	// The one moment of the step that writes parameters, and so the one
	// moment a serve replica of t.M waits for (model.Model.ApplyUpdate).
	// The sparse update marks rows staged by open lookahead windows dirty
	// (shard.WindowQueue.MarkDirty) so their consuming forwards repair them.
	t.M.ApplyUpdate(t.LR)
	t.stageLookahead(ahead)
	return totalLoss / float64(n)
}

// abortStaged discards the whole staged lookahead: every open prefetch
// window is joined and dropped (its accounting already happened — wasted
// speculation), and the ring slots are freed. The committed accelerator
// learning is NOT undone, matching the real system: the EAL saw those
// inputs whether or not the speculation paid off.
//
//hotline:hotpath
func (t *HotlineTrainer) abortStaged() {
	if t.staged == 0 {
		return
	}
	aborted := false
	for j := 0; j < t.staged; j++ {
		s := &t.ring[(t.head+j)%len(t.ring)]
		if s.prefetched {
			aborted = true
		}
		s.batch = nil
		s.sub = nil
		s.prefetched = false
	}
	t.staged = 0
	if aborted {
		t.M.AbortPrefetchSparse()
	}
}

// stageLookahead stages future batches (in stream order) until the
// pipeline is Depth-1 deep, skipping the prefix that is already staged. A
// caller whose lookahead diverges from what was staged gets no new staging
// — the mismatch is resolved (aborted) when its head batch trains.
//
//hotline:hotpath
func (t *HotlineTrainer) stageLookahead(lookahead []*data.Batch) {
	limit := len(t.ring) - 1
	for j, nb := range lookahead {
		if nb == nil || j >= limit {
			return
		}
		if j < t.staged {
			if t.ring[(t.head+j)%len(t.ring)].batch != nb {
				return
			}
			continue
		}
		t.stage(nb)
	}
}

// stage runs the lookahead for one mini-batch — a future one, or the
// current one when nothing staged it: accelerator learning and
// classification (the same EAL-state sequence as stepping it directly —
// batches are staged in stream order, each learn/classify pair adjacent),
// then — on a sharded service, when the split is real — the non-popular
// µ-batch's fabric prefetch. A future batch's window is
// planned after the current step's sparse update; rows a LATER update
// rewrites while the window waits are delta-repaired at consume time, so
// the staged values always equal what a synchronous gather would read.
//
//hotline:hotpath
func (t *HotlineTrainer) stage(nb *data.Batch) {
	slot := &t.ring[(t.head+t.staged)%len(t.ring)]
	t.learn(nb)
	cl := t.Acc.Classify(nb)
	slot.batch = nb
	slot.popIdx = append(slot.popIdx[:0], cl.PopularIdx...)    //hotline:allow hotalloc classification copy into slot scratch; converges to the batch size
	slot.nonIdx = append(slot.nonIdx[:0], cl.NonPopularIdx...) //hotline:allow hotalloc classification copy into slot scratch; converges to the batch size
	slot.sub = nil
	slot.prefetched = false
	t.staged++
	if len(slot.popIdx) == 0 || len(slot.nonIdx) == 0 {
		return
	}
	slot.sub = nb.SubsetInto(&slot.subBuf, slot.nonIdx)
	// At depth 1 the pipeline's only window belongs to the consuming
	// forward, so the gather stays synchronous by construction. Planning a
	// window before the popular pass also fixes the cache-state order, so
	// the service's counters are deterministic.
	if len(t.ring) > 1 && t.Shard != nil {
		if t.shadow == nil {
			t.shadow = model.NewShadow(t.M)
		}
		t.shadow.PrefetchSparse(slot.sub)
		slot.prefetched = true
	}
}

// runSplit runs the popular and non-popular µ-batch passes (concurrently
// when workers allow) and folds the shadow's gradients back in fixed order.
//
//hotline:hotpath
func (t *HotlineTrainer) runSplit(b *data.Batch, pop []int, nonSub *data.Batch, invN float32) float64 {
	var totalLoss float64
	if par.Workers() <= 1 {
		lossPop := t.passOn(t.M, b, pop, invN, &t.popGrad)
		lossNon := passInto(t.shadow, nonSub, invN, &t.nonGrad)
		totalLoss = lossPop + lossNon
	} else {
		var lossPop, lossNon float64
		par.Do(
			func() { lossPop = t.passOn(t.M, b, pop, invN, &t.popGrad) },
			func() { lossNon = passInto(t.shadow, nonSub, invN, &t.nonGrad) },
		)
		totalLoss = lossPop + lossNon
	}
	t.M.AbsorbShadow(t.shadow)
	return totalLoss
}

// passOn subsets idx out of b into the executor's popular-side buffer and
// runs one µ-batch pass on m.
//
//hotline:hotpath
func (t *HotlineTrainer) passOn(m *model.Model, b *data.Batch, idx []int, invN float32, grad *tensor.Matrix) float64 {
	return passInto(m, b.SubsetInto(&t.popSub, idx), invN, grad)
}

// passInto runs forward/backward for one already-extracted µ-batch on m.
// Sum-reduced gradients are scaled by 1/n (the full mini-batch size) so the
// accumulated update equals the baseline's mean-reduced mini-batch update
// (Eq. 5). grad is the executor-owned loss-gradient buffer for this pass.
//
//hotline:hotpath
func passInto(m *model.Model, sub *data.Batch, invN float32, grad *tensor.Matrix) float64 {
	logits := m.Forward(sub)
	loss, g := nn.BCEWithLogitsInto(grad, logits, sub.Labels, nn.ReduceSum)
	m.Backward(g, invN)
	return loss
}

// CurvePoint is one evaluation sample along a training run.
type CurvePoint struct {
	Iteration int
	Loss      float64
	Metrics   metrics.Summary
}

// RunConfig controls a training run.
type RunConfig struct {
	BatchSize int
	Iters     int
	EvalEvery int
	EvalSize  int
}

// Run trains for cfg.Iters mini-batches from gen, evaluating on a held-out
// batch every EvalEvery iterations, and returns the metric curve. The
// stream is drawn up front and stepped at the trainer's own depth
// (StepAll), so an executor's lookahead — classification + cross-iteration
// prefetch — overlaps the evaluations; the batch stream and the training
// math are identical for every depth.
func Run(t Trainer, gen *data.Generator, cfg RunConfig) []CurvePoint {
	if cfg.Iters <= 0 {
		return nil // nothing to train, nothing to evaluate
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 10
	}
	if cfg.EvalSize <= 0 {
		cfg.EvalSize = 1024
	}
	evalGen := data.NewGenerator(gen.Cfg)
	evalGen.SetDay(0)
	// Skip ahead so the eval batch is disjoint from early training batches.
	evalGen.NextBatch(cfg.EvalSize)
	evalBatch := evalGen.NextBatch(cfg.EvalSize)

	batches := gen.NextBatches(cfg.Iters, cfg.BatchSize)
	var curve []CurvePoint
	eval := func(iter int) {
		probs := t.Model().Predict(evalBatch)
		curve = append(curve, CurvePoint{
			Iteration: iter,
			Metrics:   metrics.Evaluate(probs, evalBatch.Labels),
		})
	}
	// The model before step i is the model after iteration i.
	losses := StepAll(t, batches, func(i int) {
		if i > 0 && i%cfg.EvalEvery == 0 {
			eval(i)
		}
	})
	eval(cfg.Iters)
	for k := range curve {
		curve[k].Loss = losses[curve[k].Iteration-1]
	}
	return curve
}

// ParityReport compares two trainers on identical data streams and returns
// the maximum divergence of their model states plus final metrics for both.
type ParityReport struct {
	MaxStateDiff float64
	Baseline     metrics.Summary
	Hotline      metrics.Summary
	PopularFrac  float64
}

// Parity trains a baseline and a Hotline executor from identical initial
// states on identical batches and reports the divergence (Figure 18 /
// Table V's experiment).
func Parity(cfg data.Config, seed uint64, run RunConfig) ParityReport {
	base := NewBaseline(model.New(cfg, seed), 0.1)
	hot := NewHotline(model.New(cfg, seed), 0.1)
	batches := data.NewGenerator(cfg).NextBatches(run.Iters, run.BatchSize)
	StepAll(base, batches, nil)
	StepAll(hot, batches, nil)

	evalGen := data.NewGenerator(cfg)
	evalGen.NextBatch(run.EvalSize)
	evalBatch := evalGen.NextBatch(run.EvalSize)
	return ParityReport{
		MaxStateDiff: model.MaxStateDiff(base.M, hot.M),
		Baseline:     metrics.Evaluate(base.M.Predict(evalBatch), evalBatch.Labels),
		Hotline:      metrics.Evaluate(hot.M.Predict(evalBatch), evalBatch.Labels),
		PopularFrac:  hot.PopularFraction(),
	}
}

// String renders the parity report.
func (p ParityReport) String() string {
	return fmt.Sprintf("max state diff %.3g | baseline %v | hotline %v | popular %.1f%%",
		p.MaxStateDiff, p.Baseline, p.Hotline, p.PopularFrac*100)
}
