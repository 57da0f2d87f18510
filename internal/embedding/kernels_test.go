package embedding

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hotline/internal/par"
	"hotline/internal/shard"
	"hotline/internal/tensor"
)

// The kernels (tensor.AddRows or tensor.AddRow behind the pool and the adjoint,
// tensor.AxpyIntoRows behind the update, the radix pair order) may reorder
// loads, never adds: the references below are the one-row-at-a-time loops and
// the comparison sort they replaced, and every comparison is on the bits.

// refPool is sum pooling one lookup at a time: each output element starts at
// +0 and adds its bag's rows in lookup order.
func refPool(w *tensor.Matrix, indices [][]int32) *tensor.Matrix {
	out := tensor.New(len(indices), w.Cols)
	for b, idxs := range indices {
		orow := out.Row(b)
		for _, ix := range idxs {
			erow := w.Row(int(ix))
			for k := range orow {
				orow[k] += erow[k]
			}
		}
	}
	return out
}

// refAdjoint is the adjoint over comparison-sorted (row, batch position)
// pairs, one gradient row at a time.
func refAdjoint(indices [][]int32, gradOut *tensor.Matrix) ([]int32, *tensor.Matrix) {
	var pairs []int64
	for b, idxs := range indices {
		for _, ix := range idxs {
			pairs = append(pairs, int64(ix)<<32|int64(uint32(b)))
		}
	}
	slices.Sort(pairs)
	var rows []int32
	var data []float32
	for i, p := range pairs {
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			rows = append(rows, int32(p>>32))
			data = append(data, make([]float32, gradOut.Cols)...)
		}
		g := data[len(data)-gradOut.Cols:]
		for k, v := range gradOut.Row(int(uint32(p))) {
			g[k] += v
		}
	}
	return rows, tensor.FromSlice(len(rows), gradOut.Cols, data)
}

// refSGD is w -= lr·g one row at a time, the product rounded to float32
// before the subtract (what every target computed without a fused
// multiply-add, and what the kernels now spell out).
func refSGD(w *tensor.Matrix, rows []int32, grad *tensor.Matrix, lr float32) {
	for i, r := range rows {
		wrow := w.Row(int(r))
		for k, g := range grad.Row(i) {
			wrow[k] -= float32(lr * g)
		}
	}
}

// refAdagrad is the adaptive step one element at a time.
func refAdagrad(w, accum *tensor.Matrix, rows []int32, grad *tensor.Matrix, lr, eps float32) {
	for i, r := range rows {
		wrow, arow := w.Row(int(r)), accum.Row(int(r))
		for k, g := range grad.Row(i) {
			arow[k] += float32(g * g)
			wrow[k] -= lr * g / float32(math.Sqrt(float64(arow[k]+eps)))
		}
	}
}

// specials are the values whose handling an add order or a start value could
// change: signed zeros, infinities of both signs (their sum is NaN), NaN.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// seedSpecials overwrites about one element in eight with a special value.
func seedSpecials(m *tensor.Matrix, rng *tensor.RNG) {
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// kernelIndices draws bags of every length 0–9, of 15–17 and of the lengths
// around a driver's row block and past two of them (so bags fall on both
// sides of kernelWork at every dim, small and kernel bags alternate in runs
// of every length, and every block count and remainder occurs), with in-bag
// duplicates: both by chance over a small row range and forced, including a
// bag that is one row nine times.
func kernelIndices(rng *tensor.RNG, rows int) [][]int32 {
	var idx [][]int32
	for rep := 0; rep < 3; rep++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, rowBlock - 1, rowBlock, rowBlock + 1, 2*rowBlock + 1} {
			bag := make([]int32, n)
			for j := range bag {
				bag[j] = int32(rng.Intn(rows))
			}
			if n >= 2 && rep == 1 {
				bag[n-1] = bag[0]
			}
			if n == 9 && rep == 2 {
				for j := range bag {
					bag[j] = bag[0]
				}
			}
			idx = append(idx, bag)
		}
	}
	return idx
}

// sameBits requires got and want to agree bit for bit — signed zeros and
// infinities included — except that a NaN matches any NaN: when two NaNs
// meet, the sum carries the sign and payload of whichever operand the
// hardware add takes first, and the compiler may commute an add, so which
// NaN comes out was never part of the contract. That an element is NaN is.
func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if g, w := got.Data[i], want.Data[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element (%d,%d) = %x (%v) want %x (%v)", what, i/want.Cols, i%want.Cols,
				math.Float32bits(got.Data[i]), got.Data[i], math.Float32bits(want.Data[i]), want.Data[i])
		}
	}
}

// TestBlockedKernelsMatchScalarReference pins pool, adjoint, SGD and Adagrad
// of both bag types to the scalar references, bit for bit, over bag lengths
// 0–9, 15–17, 31–33 and 65, dims below, at and beyond a vector and a tile,
// duplicates and special values, with rows read from the table and from
// staging buffers.
func TestBlockedKernelsMatchScalarReference(t *testing.T) {
	const rows, nodes = 23, 4
	for _, dim := range []int{1, 3, 7, 8, 16, 64, 65, 67} {
		rng := tensor.NewRNG(uint64(100 + dim))
		init := NewTable(rows, dim, rng)
		seedSpecials(init.W, rng)
		idx := kernelIndices(rng, rows)
		gradOut := tensor.New(len(idx), dim)
		for i := range gradOut.Data {
			gradOut.Data[i] = float32(rng.NormFloat64())
		}
		seedSpecials(gradOut, rng)

		// sharded: a cache of two rows per node leaves most remote rows to be
		// fetched into the staging buffer (the rest hit, and are read from the
		// table), so one bag pools from both sources.
		bags := map[string]func() Bag{
			"table": func() Bag { return init.Clone() },
			"sharded": func() Bag {
				return ShardBag(init.Clone(), shardSvc(nodes, 2, dim), 0)
			},
		}
		for name, build := range bags {
			bag := build()
			wantOut := refPool(init.W, idx)
			sameBits(t, name+" pool", bag.Forward(idx), wantOut)
			if sb, ok := bag.(*ShardedBag); ok {
				sameBits(t, name+" serve pool", sb.ServeForward(idx), wantOut)
				if sb.svc.Gatherer().Stats().SyncRows == 0 {
					t.Fatalf("dim %d: the sharded case staged no rows", dim)
				}
			}

			wantRows, wantGrad := refAdjoint(idx, gradOut)
			sg := bag.BackwardIndices(idx, gradOut)
			if !slices.Equal(sg.Rows, wantRows) {
				t.Fatalf("%s dim %d: gradient rows %v want %v", name, dim, sg.Rows, wantRows)
			}
			sameBits(t, name+" adjoint", sg.Grad, wantGrad)

			// A rate that is no power of two: lr·g then rounds, so a fused
			// multiply-add in the update would show.
			want := init.W.Clone()
			refSGD(want, wantRows, wantGrad, 0.1)
			bag.ApplySparseSGD(sg, 0.1)
			sameBits(t, name+" sgd", materialize(bag), want)

			st, accum := NewAdagradStateFor(bag), tensor.New(rows, dim)
			for step := 0; step < 2; step++ { // the second step starts from a non-zero accumulator
				sg = bag.BackwardIndices(idx, gradOut)
				refAdagrad(want, accum, wantRows, wantGrad, 0.25, st.Eps)
				bag.ApplySparseAdagrad(st, sg, 0.25)
			}
			sameBits(t, name+" adagrad", materialize(bag), want)
			sameBits(t, name+" adagrad accumulator", st.Accum, accum)
			if sb, ok := bag.(*ShardedBag); ok {
				sb.svc.Close()
			}
		}
	}
}

func materialize(b Bag) *tensor.Matrix {
	out := tensor.New(b.NumRows(), b.EmbedDim())
	for r := 0; r < b.NumRows(); r++ {
		copy(out.Row(r), b.RowView(r))
	}
	return out
}

// TestRadixOrderMatchesSort: stable counting passes on the row digits leave
// the packed pairs exactly where a comparison sort on the whole key does.
func TestRadixOrderMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(7)
	random := func(bags, maxLookups, rows int) [][]int32 {
		idx := make([][]int32, bags)
		for b := range idx {
			idx[b] = make([]int32, rng.Intn(maxLookups+1))
			for j := range idx[b] {
				idx[b][j] = int32(rng.Intn(rows))
			}
		}
		return idx
	}
	// withMax plants the largest row in the middle of a random set, so the
	// pass count is decided by a row the walk meets late.
	withMax := func(maxRow int32) [][]int32 {
		idx := random(64, 6, int(maxRow)+1)
		idx[len(idx)/2] = append(idx[len(idx)/2], maxRow, 0, maxRow)
		return idx
	}
	cases := map[string][][]int32{
		"random small range": random(300, 9, 50),
		"random wide range":  random(300, 9, 1<<20),
		"max row 255":        withMax(255),
		"max row 256":        withMax(256),
		"max row 65535":      withMax(65535),
		"max row 65536":      withMax(65536),
		"max row 2^24+1":     withMax(1<<24 + 1),
		"one row":            {{5, 5, 5}, {5}, {5, 5}},
		"row zero only":      {{0, 0}, {0}},
		"empty bags between": {{9, 3}, {}, {}, {3, 300, 9}, {}, {70000}},
		"batch of one":       {{4, 1, 4, 2, 1}},
		"no lookups":         {{}, {}},
		"empty batch":        {},
	}
	var a backwardArena
	for name, idx := range cases {
		var want []int64
		for b, idxs := range idx {
			for _, ix := range idxs {
				want = append(want, int64(ix)<<32|int64(uint32(b)))
			}
		}
		slices.Sort(want)
		if got := a.pairsByRow(idx); !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from the comparison sort\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestStagedRowsArePooledFromStaging: a row the window's plan fetched is read
// from the staging buffer, not from the owner shard — the two hold the same
// bits in an untiered cache, so only tiered staging shows the source. A
// warm-tier row is pooled at its dequantized value in every block position
// and in the tail.
func TestStagedRowsArePooledFromStaging(t *testing.T) {
	const rows, dim, nodes = 16, 8, 2
	svc := shard.New(shard.Config{
		Nodes: nodes, CacheBytes: 64 * dim * 4, RowBytes: dim * 4, Quant: shard.QuantINT8,
	}, nil)
	defer svc.Close()
	init := NewTable(rows, dim, tensor.NewRNG(5))
	sb := ShardBag(init.Clone(), svc, 0)
	// Node 0 deals bag 0; odd rows live on node 1, so all six are remote and
	// served from the int8 tier: a block of four and a tail of two.
	idx := [][]int32{{1, 3, 5, 7, 9, 11}}
	out := sb.Forward(idx)
	want := tensor.New(1, dim)
	for _, ix := range idx[0] {
		q := make([]float32, dim)
		tensor.RoundTripI8(q, init.W.Row(int(ix)))
		for k := range q {
			want.Data[k] += q[k]
		}
	}
	sameBits(t, "int8-tier pool", out, want)
	if refPool(init.W, idx).Equal(want) {
		t.Fatal("the int8 round trip changed nothing: the test cannot tell staging from the shards")
	}
}

// TestSmallBagsStayOnTheGoLoop: a bag below kernelWork — Kaggle's one-hot
// lookup at dim 16 above all — never reaches the assembly body, and one at or
// above it does. Which loop summed a bag cannot be told from its bits, so the
// probe hands both a caller bug they refuse in different words: source rows
// one element narrower than the destination. The Go loop's reslice panics
// with a runtime error; the kernel reports a short source row.
func TestSmallBagsStayOnTheGoLoop(t *testing.T) {
	const kernel = "tensor: AddRows source row shorter than dst"
	paths := map[string]func(dim, lookups int){
		"pool": func(dim, lookups int) {
			tab := &Table{Rows: 4, Dim: dim, W: tensor.New(4, dim-1)}
			tab.Forward([][]int32{make([]int32, lookups)})
		},
		"adjoint": func(dim, lookups int) {
			var a backwardArena
			bagBackward(&a, [][]int32{make([]int32, lookups)}, tensor.New(1, dim-1), dim)
		},
	}
	for name, run := range paths {
		probe := func(dim, lookups int) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			run(dim, lookups)
			return "no panic"
		}
		if probe(64, 8) != kernel {
			t.Skipf("%s: an 8x64 bag is not on the vector kernel: this machine runs the generic loops only", name)
		}
		for _, c := range []struct {
			dim, lookups int
			onKernel     bool
		}{
			{16, 1, false}, {16, 2, true}, {8, 3, false}, {8, 4, true},
			{1, kernelWork - 1, false}, {1, kernelWork, true}, {kernelWork - 1, 1, false}, {kernelWork, 1, true},
		} {
			if msg := probe(c.dim, c.lookups); (msg == kernel) != c.onKernel {
				t.Errorf("%s: %d lookups at dim %d: on the kernel %v, want %v (%s)", name, c.lookups, c.dim, msg == kernel, c.onKernel, msg)
			}
		}
	}
}

// TestPoolSplitFollowsTheBatchNotItsFirstBag: a batch whose first bag is
// empty and its rotation (the empty bag last) hold the same work, so they
// pick the same serial-or-forked split — here the forked one, which the
// first bag's length alone would have refused the first batch — and produce
// the same bits at one worker and at two.
func TestPoolSplitFollowsTheBatchNotItsFirstBag(t *testing.T) {
	const rows, dim, bags, lookups = 50, 64, 1024, 8
	rng := tensor.NewRNG(11)
	tab := NewTable(rows, dim, rng)
	batch := make([][]int32, bags)
	for b := 1; b < bags; b++ {
		batch[b] = make([]int32, lookups)
		for j := range batch[b] {
			batch[b][j] = int32(rng.Intn(rows))
		}
	}
	rotated := append(append([][]int32(nil), batch[1:]...), batch[0])

	defer par.SetWorkers(par.SetWorkers(2))
	work := poolWork(bags, checkIndices(batch, rows), dim)
	if w := poolWork(bags, checkIndices(rotated, rows), dim); w != work {
		t.Fatalf("per-bag work %d for the batch, %d for its rotation", work, w)
	}
	if par.Serial(bags, work) {
		t.Fatalf("a batch of %d lookups at dim %d runs serially at two workers", (bags-1)*lookups, dim)
	}
	for name, idx := range map[string][][]int32{"first bag empty": batch, "rotated": rotated} {
		want := refPool(tab.W, idx)
		for _, workers := range []int{1, 2} {
			par.SetWorkers(workers)
			sameBits(t, fmt.Sprintf("%s, %d workers", name, workers), tab.Forward(idx), want)
		}
	}
}
