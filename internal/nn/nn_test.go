package nn

import (
	"math"
	"testing"
	"testing/quick"

	"hotline/internal/tensor"
)

// numericalGrad estimates dLoss/dx[i] by central differences.
func numericalGrad(x *tensor.Matrix, i int, loss func() float64) float64 {
	const eps = 1e-3
	orig := x.Data[i]
	x.Data[i] = orig + eps
	lp := loss()
	x.Data[i] = orig - eps
	lm := loss()
	x.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

func TestLinearForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(2, 2, rng)
	l.W = tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	l.B = tensor.FromSlice(1, 2, []float32{0.5, -0.5})
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := l.Forward(x)
	if y.At(0, 0) != 4.5 || y.At(0, 1) != 5.5 {
		t.Fatalf("Linear forward = %v", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(4, 3, rng)
	x := tensor.New(5, 4)
	tensor.NormalInit(x, 1, rng)
	targets := []float32{1, 0, 1, 0, 1}

	loss := func() float64 {
		h := l.Forward(x)
		// squash 3 outputs to 1 logit by summing, for a scalar loss
		logits := tensor.New(5, 1)
		for r := 0; r < 5; r++ {
			row := h.Row(r)
			logits.Data[r] = row[0] + row[1] + row[2]
		}
		return BCELossOnly(logits, targets, ReduceSum)
	}

	// analytic gradients
	h := l.Forward(x)
	logits := tensor.New(5, 1)
	for r := 0; r < 5; r++ {
		row := h.Row(r)
		logits.Data[r] = row[0] + row[1] + row[2]
	}
	_, glog := BCEWithLogits(logits, targets, ReduceSum)
	gh := tensor.New(5, 3)
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			gh.Set(r, c, glog.Data[r])
		}
	}
	gx := l.Backward(gh)

	for _, i := range []int{0, 3, 7, 11} {
		num := numericalGrad(l.W, i, loss)
		if math.Abs(num-float64(l.GradW.Data[i])) > 1e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("W grad[%d]: analytic %g numeric %g", i, l.GradW.Data[i], num)
		}
	}
	for i := 0; i < 3; i++ {
		num := numericalGrad(l.B, i, loss)
		if math.Abs(num-float64(l.GradB.Data[i])) > 1e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("b grad[%d]: analytic %g numeric %g", i, l.GradB.Data[i], num)
		}
	}
	for _, i := range []int{0, 5, 13, 19} {
		num := numericalGrad(x, i, loss)
		if math.Abs(num-float64(gx.Data[i])) > 1e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("x grad[%d]: analytic %g numeric %g", i, gx.Data[i], num)
		}
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := r.Forward(x)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("ReLU forward = %v", y.Data)
		}
	}
	g := r.Backward(tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}))
	wantG := []float32{0, 0, 1, 0}
	for i, w := range wantG {
		if g.Data[i] != w {
			t.Fatalf("ReLU backward = %v", g.Data)
		}
	}
}

// refReLURange is the branchy loop reluRange replaced, over outputs that
// start at +0: v and 1 where v > 0, nothing written elsewhere.
func refReLURange(out, mask, x []float32) {
	for i, v := range x {
		if v > 0 {
			out[i], mask[i] = v, 1
		}
	}
}

// TestReLUMatchesBranchyReference: the branch-free ReLU writes the bits the
// branchy loop left in zeroed buffers, output and mask, for +0, -0, ±
// denormals, ±Inf, NaNs of either sign and payload, normals and the largest
// finite values, over ranges that start and end anywhere; and nothing
// outside its range.
func TestReLUMatchesBranchyReference(t *testing.T) {
	specials := []uint32{
		0, 0x80000000, 1, 0x80000001, 0x007fffff, 0x807fffff, 0x00800000, 0x80800000,
		0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000, 0x7f800001, 0xff800001, 0x7fc00000, 0xffc00000, 0x7fffffff, 0xffffffff,
		0x3f800000, 0xbf800000,
	}
	rng := tensor.NewRNG(8)
	x := tensor.New(1, 3*len(specials))
	for i := range x.Data {
		if i < len(specials) {
			x.Data[i] = math.Float32frombits(specials[i])
		} else {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
	n := len(x.Data)
	wantOut, wantMask := make([]float32, n), make([]float32, n)
	refReLURange(wantOut, wantMask, x.Data)
	const canary = 12345.5
	for lo := 0; lo <= n; lo += 7 {
		for hi := lo; hi <= n; hi += 5 {
			out, mask := tensor.New(1, n), tensor.New(1, n)
			out.Fill(canary)
			mask.Fill(canary)
			reluRange(out, mask, x, lo, hi)
			for i := range n {
				wo, wm := float32(canary), float32(canary)
				if lo <= i && i < hi {
					wo, wm = wantOut[i], wantMask[i]
				}
				if math.Float32bits(out.Data[i]) != math.Float32bits(wo) || math.Float32bits(mask.Data[i]) != math.Float32bits(wm) {
					t.Fatalf("range [%d, %d) element %d (input %08x): out %08x mask %08x, want %08x %08x", lo, hi, i,
						math.Float32bits(x.Data[i]), math.Float32bits(out.Data[i]), math.Float32bits(mask.Data[i]),
						math.Float32bits(wo), math.Float32bits(wm))
				}
			}
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if v := SigmoidScalar(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %g", v)
	}
	if v := SigmoidScalar(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %g", v)
	}
	if v := SigmoidScalar(0); math.Abs(float64(v)-0.5) > 1e-7 {
		t.Fatalf("sigmoid(0) = %g", v)
	}
}

func TestSigmoidGradCheck(t *testing.T) {
	s := NewSigmoid()
	x := tensor.FromSlice(1, 3, []float32{-0.5, 0.2, 1.5})
	loss := func() float64 {
		y := s.Forward(x)
		var sum float64
		for _, v := range y.Data {
			sum += float64(v) * float64(v)
		}
		return sum
	}
	y := s.Forward(x)
	g := tensor.New(1, 3)
	for i, v := range y.Data {
		g.Data[i] = 2 * v
	}
	gx := s.Backward(g)
	for i := range x.Data {
		num := numericalGrad(x, i, loss)
		if math.Abs(num-float64(gx.Data[i])) > 1e-3 {
			t.Fatalf("sigmoid grad[%d]: analytic %g numeric %g", i, gx.Data[i], num)
		}
	}
}

func TestMLPShapesAndParams(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewMLP([]int{13, 64, 16}, true, rng)
	x := tensor.New(8, 13)
	tensor.NormalInit(x, 1, rng)
	y := m.Forward(x)
	if y.Rows != 8 || y.Cols != 16 {
		t.Fatalf("MLP out shape %dx%d", y.Rows, y.Cols)
	}
	want := 13*64 + 64 + 64*16 + 16
	if n := NumParams(m.Params()); n != want {
		t.Fatalf("NumParams = %d want %d", n, want)
	}
	if f := m.FLOPs(8); f != MLPFLOPs([]int{13, 64, 16}, 8) {
		t.Fatalf("FLOPs mismatch %d", f)
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMLP([]int{3, 5, 1}, false, rng)
	x := tensor.New(4, 3)
	tensor.NormalInit(x, 1, rng)
	targets := []float32{1, 0, 0, 1}

	loss := func() float64 {
		return BCELossOnly(m.Forward(x), targets, ReduceMean)
	}
	ZeroGrads(m.Params())
	logits := m.Forward(x)
	_, g := BCEWithLogits(logits, targets, ReduceMean)
	gx := m.Backward(g)

	for _, p := range m.Params() {
		for _, i := range []int{0, len(p.Value.Data) - 1} {
			num := numericalGrad(p.Value, i, loss)
			if math.Abs(num-float64(p.Grad.Data[i])) > 1e-2*math.Max(0.05, math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g numeric %g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
	for i := range x.Data {
		num := numericalGrad(x, i, loss)
		if math.Abs(num-float64(gx.Data[i])) > 1e-2*math.Max(0.05, math.Abs(num)) {
			t.Fatalf("x grad[%d]: analytic %g numeric %g", i, gx.Data[i], num)
		}
	}
}

// TestMLPBackwardParamsMatchesBackward: the parameters-only backward leaves
// every parameter gradient bit for bit where Backward leaves it, on top of
// gradients already accumulated, for a stack with and without a final ReLU.
func TestMLPBackwardParamsMatchesBackward(t *testing.T) {
	for _, reluAfterLast := range []bool{false, true} {
		rng := tensor.NewRNG(6)
		full := NewMLP([]int{13, 24, 9}, reluAfterLast, rng)
		params := full.Shadow()
		x, g := tensor.New(37, 13), tensor.New(37, 9)
		tensor.NormalInit(x, 1, rng)
		for round := range 2 {
			tensor.NormalInit(g, 1, rng)
			full.Forward(x)
			full.Backward(g)
			params.Forward(x)
			params.BackwardParams(g)
			for i, p := range full.Params() {
				q := params.Params()[i]
				for j, v := range p.Grad.Data {
					if math.Float32bits(v) != math.Float32bits(q.Grad.Data[j]) {
						t.Fatalf("reluAfterLast=%v round %d: %s grad[%d] = %x under BackwardParams, %x under Backward",
							reluAfterLast, round, p.Name, j, math.Float32bits(q.Grad.Data[j]), math.Float32bits(v))
					}
				}
			}
		}
	}
}

func TestDotInteractionWidthAndValues(t *testing.T) {
	di := NewDotInteraction(2, 2) // n = 3 vectors, pairs = 3
	if di.OutWidth() != 2+3 {
		t.Fatalf("OutWidth = %d", di.OutWidth())
	}
	z0 := tensor.FromSlice(1, 2, []float32{1, 2})
	e1 := tensor.FromSlice(1, 2, []float32{3, 4})
	e2 := tensor.FromSlice(1, 2, []float32{5, 6})
	out := di.Forward([]*tensor.Matrix{z0, e1, e2})
	// pairs in order: (e1,z0), (e2,z0), (e2,e1)
	want := []float32{1, 2, 1*3 + 2*4, 1*5 + 2*6, 3*5 + 4*6}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("interaction out = %v want %v", out.Data, want)
		}
	}
}

func TestDotInteractionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	di := NewDotInteraction(3, 2)
	ins := make([]*tensor.Matrix, 3)
	for i := range ins {
		ins[i] = tensor.New(2, 3)
		tensor.NormalInit(ins[i], 1, rng)
	}
	targets := []float32{1, 0}
	loss := func() float64 {
		out := di.Forward(ins)
		logits := tensor.New(2, 1)
		for r := 0; r < 2; r++ {
			var s float32
			for _, v := range out.Row(r) {
				s += v
			}
			logits.Data[r] = s
		}
		return BCELossOnly(logits, targets, ReduceSum)
	}
	out := di.Forward(ins)
	logits := tensor.New(2, 1)
	for r := 0; r < 2; r++ {
		var s float32
		for _, v := range out.Row(r) {
			s += v
		}
		logits.Data[r] = s
	}
	_, gl := BCEWithLogits(logits, targets, ReduceSum)
	gout := tensor.New(out.Rows, out.Cols)
	for r := 0; r < out.Rows; r++ {
		for c := 0; c < out.Cols; c++ {
			gout.Set(r, c, gl.Data[r])
		}
	}
	grads := di.Backward(gout)
	for vi, in := range ins {
		for i := range in.Data {
			num := numericalGrad(in, i, loss)
			if math.Abs(num-float64(grads[vi].Data[i])) > 2e-2*math.Max(0.05, math.Abs(num)) {
				t.Fatalf("input %d grad[%d]: analytic %g numeric %g", vi, i, grads[vi].Data[i], num)
			}
		}
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(6)
	at := NewAttention(4, 3)
	ins := make([]*tensor.Matrix, 3)
	for i := range ins {
		ins[i] = tensor.New(2, 4)
		tensor.NormalInit(ins[i], 1, rng)
	}
	at.Forward(ins)
	for b := 0; b < 2; b++ {
		var sum float32
		for _, a := range at.lastAlphas.Row(b) {
			if a < 0 {
				t.Fatal("negative attention weight")
			}
			sum += a
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("alphas sum to %g", sum)
		}
	}
}

func TestAttentionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(7)
	at := NewAttention(3, 3)
	ins := make([]*tensor.Matrix, 3)
	for i := range ins {
		ins[i] = tensor.New(2, 3)
		tensor.NormalInit(ins[i], 0.7, rng)
	}
	targets := []float32{1, 0}
	loss := func() float64 {
		out := at.Forward(ins)
		logits := tensor.New(2, 1)
		for r := 0; r < 2; r++ {
			var s float32
			for _, v := range out.Row(r) {
				s += v
			}
			logits.Data[r] = s
		}
		return BCELossOnly(logits, targets, ReduceSum)
	}
	out := at.Forward(ins)
	logits := tensor.New(2, 1)
	for r := 0; r < 2; r++ {
		var s float32
		for _, v := range out.Row(r) {
			s += v
		}
		logits.Data[r] = s
	}
	_, gl := BCEWithLogits(logits, targets, ReduceSum)
	gout := tensor.New(out.Rows, out.Cols)
	for r := 0; r < out.Rows; r++ {
		for c := 0; c < out.Cols; c++ {
			gout.Set(r, c, gl.Data[r])
		}
	}
	grads := at.Backward(gout)
	for vi, in := range ins {
		for i := range in.Data {
			num := numericalGrad(in, i, loss)
			if math.Abs(num-float64(grads[vi].Data[i])) > 2e-2*math.Max(0.05, math.Abs(num)) {
				t.Fatalf("timestep %d grad[%d]: analytic %g numeric %g", vi, i, grads[vi].Data[i], num)
			}
		}
	}
}

func TestBCEMatchesDirectFormula(t *testing.T) {
	logits := tensor.FromSlice(2, 1, []float32{0.3, -1.2})
	targets := []float32{1, 0}
	got, grad := BCEWithLogits(logits, targets, ReduceSum)
	var want float64
	for i := range targets {
		p := 1 / (1 + math.Exp(-float64(logits.Data[i])))
		y := float64(targets[i])
		want += -(y*math.Log(p) + (1-y)*math.Log(1-p))
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("BCE = %g want %g", got, want)
	}
	for i := range targets {
		p := 1 / (1 + math.Exp(-float64(logits.Data[i])))
		if math.Abs(float64(grad.Data[i])-(p-float64(targets[i]))) > 1e-6 {
			t.Fatalf("BCE grad[%d] = %g", i, grad.Data[i])
		}
	}
}

// Property: the µ-batch split identity of paper Eq. 5. Sum-reduced BCE over a
// mini-batch equals the sum of the two µ-batch losses for any split point.
func TestLossSplitIdentityProperty(t *testing.T) {
	f := func(seed uint64, splitRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		n := 16
		logits := tensor.New(n, 1)
		tensor.NormalInit(logits, 2, rng)
		targets := make([]float32, n)
		for i := range targets {
			if rng.Float32() < 0.5 {
				targets[i] = 1
			}
		}
		split := int(splitRaw) % (n + 1)
		full := BCELossOnly(logits, targets, ReduceSum)
		lo := BCELossOnly(tensor.FromSlice(split, 1, logits.Data[:split]), targets[:split], ReduceSum)
		hi := BCELossOnly(tensor.FromSlice(n-split, 1, logits.Data[split:]), targets[split:], ReduceSum)
		return math.Abs(full-(lo+hi)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSGDStep(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := NewLinear(2, 2, rng)
	opt := NewSGD(l.Params(), 0.5)
	before := l.W.Clone()
	l.GradW.Fill(1)
	opt.Step()
	for i := range l.W.Data {
		if math.Abs(float64(l.W.Data[i]-(before.Data[i]-0.5))) > 1e-6 {
			t.Fatalf("SGD step wrong at %d", i)
		}
	}
	ZeroGrads(l.Params())
	if l.GradW.Data[0] != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

// Training an MLP on a separable toy problem must reduce the loss.
func TestMLPLearnsToyProblem(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewMLP([]int{2, 16, 1}, false, rng)
	opt := NewSGD(m.Params(), 0.1)
	x := tensor.New(64, 2)
	targets := make([]float32, 64)
	for i := 0; i < 64; i++ {
		a, b := rng.Float32()*2-1, rng.Float32()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			targets[i] = 1
		}
	}
	first := BCELossOnly(m.Forward(x), targets, ReduceMean)
	var last float64
	for epoch := 0; epoch < 200; epoch++ {
		ZeroGrads(m.Params())
		logits := m.Forward(x)
		var g *tensor.Matrix
		last, g = BCEWithLogits(logits, targets, ReduceMean)
		m.Backward(g)
		opt.Step()
	}
	if last > first*0.5 {
		t.Fatalf("MLP failed to learn: first %g last %g", first, last)
	}
}
