package model

import (
	"strings"
	"testing"

	"hotline/internal/data"
	"hotline/internal/nn"
)

// halfSGD is a third update rule, written here to show what one costs: a
// type with a step method and a constructor, and no edit to model.go or to
// an executor. It is SGD stepping at half the rate it is handed.
type halfSGD struct{ Optimizer }

func newHalfSGD(m *Model) Optimizer { return halfSGD{NewSGD(m)} }

func (h halfSGD) step(lr float32) { h.Optimizer.step(lr / 2) }

// splitStep is one hand-scheduled Hotline step: even samples on m, odd ones
// on its shadow sh, the shadow absorbed, one update on m.
func splitStep(m, sh *Model, b *data.Batch, lr float32) {
	var even, odd []int
	for i := 0; i < b.Size(); i++ {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	m.ZeroAll()
	sh.ZeroAll()
	for _, p := range []struct {
		on  *Model
		idx []int
	}{{m, even}, {sh, odd}} {
		sub := b.Subset(p.idx)
		_, g := nn.BCEWithLogits(p.on.Forward(sub), sub.Labels, nn.ReduceSum)
		p.on.Backward(g, 1/float32(b.Size()))
	}
	m.AbsorbShadow(sh)
	m.ApplyUpdate(lr)
}

// TestThirdRuleIsOneFile drives halfSGD through TrainStep and through a
// hand-split µ-batch pair; both must land exactly where plain SGD at lr/2
// does. Rule state living on the model is what makes the second half work
// with no executor in sight.
func TestThirdRuleIsOneFile(t *testing.T) {
	cfg := tiny()
	const lr, seed = 0.1, 3
	batches := data.NewGenerator(cfg).NextBatches(4, 32)

	want, got := New(cfg, seed), New(cfg, seed).SetOptimizer(newHalfSGD)
	for _, b := range batches {
		want.TrainStep(b, lr/2)
		got.TrainStep(b, lr)
	}
	if d := MaxStateDiff(want, got); d != 0 {
		t.Fatalf("TrainStep under halfSGD at lr differs from SGD at lr/2 by %g", d)
	}

	want, got = New(cfg, seed), New(cfg, seed).SetOptimizer(newHalfSGD)
	wantSh, gotSh := NewShadow(want), NewShadow(got)
	for _, b := range batches {
		splitStep(want, wantSh, b, lr/2)
		splitStep(got, gotSh, b, lr)
	}
	if d := MaxStateDiff(want, got); d != 0 {
		t.Fatalf("split step under halfSGD at lr differs from SGD at lr/2 by %g", d)
	}
	if MaxStateDiff(want, New(cfg, seed)) == 0 {
		t.Fatal("the split steps trained nothing; the comparison is vacuous")
	}
}

// TestShadowCarriesNoRule: a shadow's gradients reach the parameters through
// AbsorbShadow and the primary's update, never through the shadow's own — a
// rule built over the primary's accumulators would apply the wrong ones.
func TestShadowCarriesNoRule(t *testing.T) {
	sh := NewShadow(New(tiny(), 1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "shadow") {
			t.Fatalf("ApplyUpdate on a shadow: recovered %q, want a panic naming the shadow", msg)
		}
	}()
	sh.ApplyUpdate(0.1)
}
