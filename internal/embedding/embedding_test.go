package embedding

import (
	"math"
	"testing"
	"testing/quick"

	"hotline/internal/tensor"
)

func TestForwardSumPooling(t *testing.T) {
	tab := &Table{Rows: 3, Dim: 2, W: tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})}
	out := tab.Forward([][]int32{{0, 2}, {1}})
	if out.At(0, 0) != 6 || out.At(0, 1) != 8 {
		t.Fatalf("bag 0 = %v", out.Row(0))
	}
	if out.At(1, 0) != 3 || out.At(1, 1) != 4 {
		t.Fatalf("bag 1 = %v", out.Row(1))
	}
}

func TestForwardOutOfRangePanics(t *testing.T) {
	tab := NewTable(2, 2, tensor.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Forward([][]int32{{5}})
}

func TestBackwardAccumulatesSharedRows(t *testing.T) {
	tab := NewTable(4, 2, tensor.NewRNG(2))
	tab.Forward([][]int32{{1, 2}, {2}})
	grad := tensor.FromSlice(2, 2, []float32{1, 1, 10, 10})
	sg := tab.Backward(grad)
	if len(sg.Rows) != 2 || sg.Rows[0] != 1 || sg.Rows[1] != 2 {
		t.Fatalf("rows = %v", sg.Rows)
	}
	// row 1 only from bag 0; row 2 from bags 0 and 1.
	if sg.Grad.At(0, 0) != 1 || sg.Grad.At(1, 0) != 11 {
		t.Fatalf("grads = %v", sg.Grad.Data)
	}
}

func TestBackwardDuplicateIndexInOneBag(t *testing.T) {
	tab := NewTable(4, 1, tensor.NewRNG(3))
	tab.Forward([][]int32{{3, 3}})
	sg := tab.Backward(tensor.FromSlice(1, 1, []float32{2}))
	if len(sg.Rows) != 1 || sg.Grad.At(0, 0) != 4 {
		t.Fatalf("duplicate index should double grad: %v %v", sg.Rows, sg.Grad.Data)
	}
}

func TestSparseSGDUpdatesOnlyTouchedRows(t *testing.T) {
	rng := tensor.NewRNG(4)
	tab := NewTable(5, 2, rng)
	before := tab.W.Clone()
	tab.Forward([][]int32{{1}})
	sg := tab.Backward(tensor.FromSlice(1, 2, []float32{1, 2}))
	tab.ApplySparseSGD(sg, 0.1)
	for r := 0; r < 5; r++ {
		for c := 0; c < 2; c++ {
			want := before.At(r, c)
			if r == 1 {
				want -= 0.1 * float32(c+1)
			}
			if math.Abs(float64(tab.W.At(r, c)-want)) > 1e-6 {
				t.Fatalf("row %d col %d: got %g want %g", r, c, tab.W.At(r, c), want)
			}
		}
	}
}

// Numerical gradient check of the bag lookup through a squared-sum loss.
func TestEmbeddingGradCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	tab := NewTable(6, 3, rng)
	indices := [][]int32{{0, 1}, {1, 4}, {5}}
	loss := func() float64 {
		out := tab.Forward(indices)
		var s float64
		for _, v := range out.Data {
			s += float64(v) * float64(v)
		}
		return s
	}
	out := tab.Forward(indices)
	gout := tensor.New(out.Rows, out.Cols)
	for i, v := range out.Data {
		gout.Data[i] = 2 * v
	}
	sg := tab.Backward(gout)
	dense := map[int32][]float32{}
	for i, r := range sg.Rows {
		dense[r] = sg.Grad.Row(i)
	}
	const eps = 1e-2
	for r := 0; r < 6; r++ {
		for c := 0; c < 3; c++ {
			i := r*3 + c
			orig := tab.W.Data[i]
			tab.W.Data[i] = orig + eps
			lp := loss()
			tab.W.Data[i] = orig - eps
			lm := loss()
			tab.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			var analytic float64
			if g, ok := dense[int32(r)]; ok {
				analytic = float64(g[c])
			}
			if math.Abs(num-analytic) > 1e-2*math.Max(0.05, math.Abs(num)) {
				t.Fatalf("W[%d,%d]: analytic %g numeric %g", r, c, analytic, num)
			}
		}
	}
}

// Property: backward conserves gradient mass — the summed sparse gradient
// equals the summed output gradient times bag sizes.
func TestBackwardMassConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		tab := NewTable(10, 2, rng)
		batch := 1 + rng.Intn(6)
		indices := make([][]int32, batch)
		totalLookups := 0
		for b := range indices {
			n := 1 + rng.Intn(3)
			totalLookups += n
			for j := 0; j < n; j++ {
				indices[b] = append(indices[b], int32(rng.Intn(10)))
			}
		}
		tab.Forward(indices)
		gout := tensor.New(batch, 2)
		gout.Fill(1)
		sg := tab.Backward(gout)
		var mass float32
		for _, v := range sg.Grad.Data {
			mass += v
		}
		return math.Abs(float64(mass)-float64(totalLookups*2)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTablesAggregate(t *testing.T) {
	rng := tensor.NewRNG(6)
	ts := NewTables([]int{10, 20}, 4, rng)
	if ts.SizeBytes() != (10+20)*4*4 {
		t.Fatalf("SizeBytes = %d", ts.SizeBytes())
	}
	if ts.TotalRows() != 30 {
		t.Fatalf("TotalRows = %d", ts.TotalRows())
	}
	c := ts.Clone()
	c[0].W.Set(0, 0, 99)
	if ts[0].W.At(0, 0) == 99 {
		t.Fatal("Clone must deep copy")
	}
}

func TestPlacementBasics(t *testing.T) {
	p := NewPlacement(2, 4)
	if p.IsHot(0, 5) {
		t.Fatal("default tier should be CPU")
	}
	p.MarkHot(0, 5)
	p.MarkHot(0, 5) // idempotent
	if !p.IsHot(0, 5) {
		t.Fatal("MarkHot failed")
	}
	if p.HotBytes != 16 {
		t.Fatalf("HotBytes = %d", p.HotBytes)
	}
	if len(p.HotRows(0)) != 1 || len(p.HotRows(1)) != 0 {
		t.Fatal("hot counts wrong")
	}
}

func TestPlacementFromCountsRespectsBudget(t *testing.T) {
	counts := []AccessCount{
		{Table: 0, Row: 0, Count: 100},
		{Table: 0, Row: 1, Count: 50},
		{Table: 1, Row: 0, Count: 200},
		{Table: 1, Row: 1, Count: 1},
	}
	dim := 4 // 16 bytes/row
	p := PlacementFromCounts(counts, 2, dim, 32)
	if n := len(p.HotRows(0)) + len(p.HotRows(1)); n != 2 {
		t.Fatalf("budget 32B should fit 2 rows, got %d", n)
	}
	if !p.IsHot(1, 0) || !p.IsHot(0, 0) {
		t.Fatal("hottest rows should win the budget")
	}
	if p.IsHot(0, 1) || p.IsHot(1, 1) {
		t.Fatal("cold rows must stay cold")
	}
}

func TestPlacementFromCountsDeterministicTieBreak(t *testing.T) {
	counts := []AccessCount{
		{Table: 1, Row: 7, Count: 10},
		{Table: 0, Row: 3, Count: 10},
	}
	p := PlacementFromCounts(counts, 2, 1, 4) // one row fits
	if !p.IsHot(0, 3) {
		t.Fatal("tie must break toward lower table id")
	}
}

func TestHotRowsSorted(t *testing.T) {
	p := NewPlacement(1, 1)
	for _, r := range []int32{9, 1, 5} {
		p.MarkHot(0, r)
	}
	rows := p.HotRows(0)
	if rows[0] != 1 || rows[1] != 5 || rows[2] != 9 {
		t.Fatalf("HotRows = %v", rows)
	}
}

func TestSparseAdagradUpdatesTouchedRows(t *testing.T) {
	rng := tensor.NewRNG(21)
	tab := NewTable(4, 2, rng)
	st := NewAdagradStateFor(tab)
	before := tab.W.Clone()
	tab.Forward([][]int32{{1}})
	sg := tab.Backward(tensor.FromSlice(1, 2, []float32{2, 0}))
	tab.ApplySparseAdagrad(st, sg, 0.5)
	// G=4 -> step 0.5*2/2 = 0.5 on element (1,0); (1,1) untouched (g=0).
	if math.Abs(float64(tab.W.At(1, 0)-(before.At(1, 0)-0.5))) > 1e-4 {
		t.Fatalf("adagrad row update wrong: %g vs %g", tab.W.At(1, 0), before.At(1, 0)-0.5)
	}
	if tab.W.At(1, 1) != before.At(1, 1) || tab.W.At(0, 0) != before.At(0, 0) {
		t.Fatal("untouched elements must not move")
	}
	if st.Accum.At(1, 0) != 4 {
		t.Fatalf("accumulator = %g", st.Accum.At(1, 0))
	}
}

// Sparse Adagrad parity discipline: one accumulated update equals the
// baseline; two per-µ-batch updates do not (see nn.TestAdagradRequires...).
func TestSparseAdagradAccumulationDiscipline(t *testing.T) {
	base := NewTable(2, 1, tensor.NewRNG(5))
	baseSt := NewAdagradStateFor(base)
	split := base.Clone()
	splitSt := NewAdagradStateFor(split)

	full := SparseGrad{Rows: []int32{0}, Grad: tensor.FromSlice(1, 1, []float32{1.0})}
	base.ApplySparseAdagrad(baseSt, full, 0.1)

	half := SparseGrad{Rows: []int32{0}, Grad: tensor.FromSlice(1, 1, []float32{0.5})}
	split.ApplySparseAdagrad(splitSt, half, 0.1)
	split.ApplySparseAdagrad(splitSt, half, 0.1)

	if base.W.At(0, 0) == split.W.At(0, 0) {
		t.Fatal("per-µ-batch adagrad must diverge from single accumulated update")
	}
}
