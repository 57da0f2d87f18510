package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %v len=%d", m, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialise")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m.Data)
	}
	m.Set(1, 0, 9)
	if d[3] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad length")
		}
	}()
	FromSlice(2, 3, []float32{1})
}

func TestRowIsView(t *testing.T) {
	m := New(2, 2)
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must return a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone must deep-copy")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul got %v want %v", dst.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

// MatMulTransB(a, b) must equal MatMul(a, Transpose(b)).
func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(1)
	a, b := New(4, 5), New(3, 5)
	NormalInit(a, 1, rng)
	NormalInit(b, 1, rng)
	viaT := New(4, 3)
	MatMul(viaT, a, Transpose(b))
	direct := New(4, 3)
	MatMulTransB(direct, a, b, &Matrix{})
	if d := MaxAbsDiff(viaT, direct); d > 1e-5 {
		t.Fatalf("MatMulTransB diff %g", d)
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a, b := New(6, 4), New(6, 3)
	NormalInit(a, 1, rng)
	NormalInit(b, 1, rng)
	viaT := New(4, 3)
	MatMul(viaT, Transpose(a), b)
	direct := New(4, 3)
	MatMulTransA(direct, a, b)
	if d := MaxAbsDiff(viaT, direct); d > 1e-5 {
		t.Fatalf("MatMulTransA diff %g", d)
	}
}

func TestAddBiasRow(t *testing.T) {
	m := New(2, 3)
	AddBiasRow(m, []float32{1, 2, 3})
	if m.At(0, 1) != 2 || m.At(1, 2) != 3 {
		t.Fatalf("AddBiasRow wrong: %v", m.Data)
	}
}

func TestSumRowsInto(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	dst := make([]float32, 2)
	SumRowsInto(dst, m)
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("SumRowsInto = %v", dst)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	dst := New(1, 3)
	Hadamard(dst, a, b)
	if dst.Data[1] != 10 {
		t.Fatalf("Hadamard = %v", dst.Data)
	}
	AxpyInto(dst, 2, a)
	if dst.Data[0] != 4+2 {
		t.Fatalf("AxpyInto = %v", dst.Data)
	}
	Scale(a, 10)
	if a.Data[0] != 10 {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(3)
	m := New(3, 5)
	NormalInit(m, 1, rng)
	tt := Transpose(Transpose(m))
	if !m.Equal(tt) {
		t.Fatal("transpose twice should be identity")
	}
}

func TestFillZero(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a, b, c := New(3, 4), New(4, 2), New(2, 5)
		NormalInit(a, 0.5, rng)
		NormalInit(b, 0.5, rng)
		NormalInit(c, 0.5, rng)
		ab := New(3, 2)
		MatMul(ab, a, b)
		abc1 := New(3, 5)
		MatMul(abc1, ab, c)
		bc := New(4, 5)
		MatMul(bc, b, c)
		abc2 := New(3, 5)
		MatMul(abc2, a, bc)
		return MaxAbsDiff(abc1, abc2) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over element-wise addition.
func TestMatMulDistributivityProperty(t *testing.T) {
	add := func(dst, a, b *Matrix) {
		for i := range dst.Data {
			dst.Data[i] = a.Data[i] + b.Data[i]
		}
	}
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a, b1, b2 := New(3, 4), New(4, 3), New(4, 3)
		NormalInit(a, 0.5, rng)
		NormalInit(b1, 0.5, rng)
		NormalInit(b2, 0.5, rng)
		sum := New(4, 3)
		add(sum, b1, b2)
		lhs := New(3, 3)
		MatMul(lhs, a, sum)
		r1, r2 := New(3, 3), New(3, 3)
		MatMul(r1, a, b1)
		MatMul(r2, a, b2)
		rhs := New(3, 3)
		add(rhs, r1, r2)
		return MaxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloatRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %g", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.08 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(13)
	m := New(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := float32(math.Sqrt(6.0 / 20.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %g outside ±%g", v, limit)
		}
	}
}

// TestWorkspaceReuse: the arena hands back the same buffers after Reset,
// matrices come back zeroed, and Int32 contents are caller-owned.
func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	m1 := ws.Matrix(4, 3)
	m1.Fill(7)
	s1 := ws.Int32(5)
	for i := range s1 {
		s1[i] = int32(i)
	}
	ws.Reset()
	m2 := ws.Matrix(2, 2)
	if m2 != m1 {
		t.Fatal("Matrix must reuse the pooled buffer after Reset")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("reused workspace matrix must come back zeroed")
		}
	}
	s2 := ws.Int32(3)
	if &s2[0] != &s1[0] {
		t.Fatal("Int32 must reuse the pooled slab after Reset")
	}
}

// TestMatrixReset: Reset truncates to 0x0 but keeps capacity for Resize.
func TestMatrixReset(t *testing.T) {
	m := New(3, 4)
	m.Fill(1)
	m.Reset()
	if m.Rows != 0 || m.Cols != 0 || len(m.Data) != 0 {
		t.Fatalf("Reset left %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if cap(m.Data) != 12 {
		t.Fatalf("Reset dropped capacity: %d", cap(m.Data))
	}
	m.Resize(2, 3)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Resize after Reset must zero the reused storage")
		}
	}
}
