package nn

import (
	"math"
	"testing"

	"hotline/internal/tensor"
)

func TestAdagradStepKnown(t *testing.T) {
	p := Param{Value: tensor.FromSlice(1, 2, []float32{1, 1}), Grad: tensor.FromSlice(1, 2, []float32{2, 0})}
	opt := NewAdagrad([]Param{p}, 0.5)
	opt.Step()
	// G = 4 -> step = 0.5*2/sqrt(4) = 0.5
	if math.Abs(float64(p.Value.Data[0]-0.5)) > 1e-5 {
		t.Fatalf("adagrad step = %v", p.Value.Data)
	}
	if p.Value.Data[1] != 1 {
		t.Fatal("zero grad must not move the parameter")
	}
	// Second identical step: G = 8 -> step = 1/sqrt(8) ≈ 0.3536.
	opt.Step()
	want := 0.5 - 0.5*2/float32(math.Sqrt(8))
	if math.Abs(float64(p.Value.Data[0]-want)) > 1e-5 {
		t.Fatalf("second step = %v want %v", p.Value.Data[0], want)
	}
}

// Adagrad's effective learning rate must shrink across repeated steps.
func TestAdagradLearningRateDecays(t *testing.T) {
	p := Param{Value: tensor.New(1, 1), Grad: tensor.New(1, 1)}
	opt := NewAdagrad([]Param{p}, 1)
	var deltas []float32
	prev := p.Value.Data[0]
	for i := 0; i < 5; i++ {
		p.Grad.Data[0] = 1
		opt.Step()
		deltas = append(deltas, prev-p.Value.Data[0])
		prev = p.Value.Data[0]
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] >= deltas[i-1] {
			t.Fatalf("step %d delta %g did not shrink from %g", i, deltas[i], deltas[i-1])
		}
	}
}

func TestAdagradLearnsToyProblem(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewMLP([]int{2, 16, 1}, false, rng)
	opt := NewAdagrad(m.Params(), 0.2)
	x := tensor.New(64, 2)
	targets := make([]float32, 64)
	for i := 0; i < 64; i++ {
		a, b := rng.Float32()*2-1, rng.Float32()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a-b > 0 {
			targets[i] = 1
		}
	}
	first := BCELossOnly(m.Forward(x), targets, ReduceMean)
	var last float64
	for epoch := 0; epoch < 150; epoch++ {
		ZeroGrads(m.Params())
		logits := m.Forward(x)
		var g *tensor.Matrix
		last, g = BCEWithLogits(logits, targets, ReduceMean)
		m.Backward(g)
		opt.Step()
	}
	if last > first*0.7 {
		t.Fatalf("adagrad failed to learn: first %g last %g", first, last)
	}
}

// The parity-critical property: because Adagrad is non-linear in the
// gradient, applying one accumulated update (Hotline's discipline) matches
// the baseline, while applying per-µ-batch updates diverges.
func TestAdagradRequiresAccumulatedUpdate(t *testing.T) {
	mk := func() (Param, *Adagrad) {
		p := Param{Value: tensor.FromSlice(1, 1, []float32{1}), Grad: tensor.New(1, 1)}
		return p, NewAdagrad([]Param{p}, 0.1)
	}
	g1, g2 := float32(0.3), float32(0.7)

	// Baseline: one update with g1+g2.
	pa, oa := mk()
	pa.Grad.Data[0] = g1 + g2
	oa.Step()

	// Hotline's discipline: accumulate both µ-batch grads, then one Step.
	pb, ob := mk()
	pb.Grad.Data[0] += g1
	pb.Grad.Data[0] += g2
	ob.Step()
	if pa.Value.Data[0] != pb.Value.Data[0] {
		t.Fatal("accumulated single update must equal the baseline exactly")
	}

	// Anti-pattern: per-µ-batch updates — must diverge from the baseline.
	pc, oc := mk()
	pc.Grad.Data[0] = g1
	oc.Step()
	pc.Grad.Data[0] = g2
	oc.Step()
	if pc.Value.Data[0] == pa.Value.Data[0] {
		t.Fatal("per-µ-batch adagrad updates should NOT match the baseline")
	}
}
