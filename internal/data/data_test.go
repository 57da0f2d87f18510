package data

import (
	"math"
	"testing"
	"testing/quick"

	"hotline/internal/embedding"
	"hotline/internal/tensor"
)

func TestZipfCDFMonotone(t *testing.T) {
	z := NewZipf(100, 1.1)
	prev := 0.0
	for r := 0; r < 100; r++ {
		p := z.ProbOfRank(r)
		if p <= 0 {
			t.Fatalf("rank %d prob %g", r, p)
		}
		if r > 0 && p > prev+1e-12 {
			t.Fatalf("prob must be non-increasing: rank %d %g > %g", r, p, prev)
		}
		prev = p
	}
	if math.Abs(z.MassOfTop(100)-1) > 1e-9 {
		t.Fatal("total mass must be 1")
	}
}

func TestZipfSampleMatchesMass(t *testing.T) {
	z := NewZipf(1000, 1.0)
	rng := tensor.NewRNG(1)
	n := 50000
	top10 := 0
	for i := 0; i < n; i++ {
		if z.Sample(rng) < 10 {
			top10++
		}
	}
	got := float64(top10) / float64(n)
	want := z.MassOfTop(10)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("top-10 empirical mass %g want %g", got, want)
	}
}

func TestZipfRanksForMass(t *testing.T) {
	z := NewZipf(1000, 1.1)
	k := z.RanksForMass(0.75)
	if m := z.MassOfTop(k); m < 0.75 {
		t.Fatalf("top-%d mass %g < 0.75", k, m)
	}
	if k > 1 {
		if m := z.MassOfTop(k - 1); m >= 0.75 {
			t.Fatalf("k not minimal: top-%d already has %g", k-1, m)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	for r := 0; r < 10; r++ {
		if math.Abs(z.ProbOfRank(r)-0.1) > 1e-9 {
			t.Fatalf("s=0 should be uniform, rank %d = %g", r, z.ProbOfRank(r))
		}
	}
}

func TestCatalogValidates(t *testing.T) {
	for _, cfg := range append(AllDatasets(), SynM1(), SynM2()) {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	cases := []struct {
		cfg       Config
		dense     int
		sparse    int
		totalRows int64
		dim       int
	}{
		{CriteoKaggle(), 13, 26, 33_800_000, 16},
		{TaobaoAlibaba(), 1, 3, 5_100_000, 16},
		{CriteoTerabyte(), 13, 26, 266_000_000, 64},
		{Avazu(), 1, 21, 9_300_000, 16},
	}
	for _, c := range cases {
		if c.cfg.DenseFeatures != c.dense || c.cfg.NumTables != c.sparse || c.cfg.EmbedDim != c.dim {
			t.Fatalf("%s shape mismatch vs Table II", c.cfg.Name)
		}
		if got := c.cfg.TotalFullRows(); got != c.totalRows {
			t.Fatalf("%s total rows %d want %d", c.cfg.Name, got, c.totalRows)
		}
	}
	if TaobaoAlibaba().TimeSteps != 21 || !TaobaoAlibaba().Attention {
		t.Fatal("Taobao must be the 21-step TBSM workload")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("RM3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("Avazu"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestSplitRowsConserves(t *testing.T) {
	rows := splitRows(1_000_000, 26, 1.6)
	var sum int64
	for _, r := range rows {
		if r < 4 {
			t.Fatalf("table with %d rows", r)
		}
		sum += r
	}
	if sum != 1_000_000 {
		t.Fatalf("splitRows sum %d", sum)
	}
	if rows[0] <= rows[25] {
		t.Fatal("rows must be head-heavy")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := CriteoKaggle()
	g1, g2 := NewGenerator(cfg), NewGenerator(cfg)
	b1, b2 := g1.NextBatch(32), g2.NextBatch(32)
	if !b1.Dense.Equal(b2.Dense) {
		t.Fatal("dense features must be deterministic")
	}
	for tbl := range b1.Sparse {
		for i := range b1.Sparse[tbl] {
			for j := range b1.Sparse[tbl][i] {
				if b1.Sparse[tbl][i][j] != b2.Sparse[tbl][i][j] {
					t.Fatal("sparse indices must be deterministic")
				}
			}
		}
	}
	for i := range b1.Labels {
		if b1.Labels[i] != b2.Labels[i] {
			t.Fatal("labels must be deterministic")
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	cfg := TaobaoAlibaba()
	g := NewGenerator(cfg)
	b := g.NextBatch(16)
	if b.Size() != 16 || b.Dense.Rows != 16 || b.Dense.Cols != 1 {
		t.Fatalf("batch shapes wrong: %d %v", b.Size(), b.Dense)
	}
	if len(b.Sparse) != 3 {
		t.Fatalf("tables = %d", len(b.Sparse))
	}
	if len(b.Sparse[0][0]) != 21 {
		t.Fatalf("sequence table should have 21 lookups, got %d", len(b.Sparse[0][0]))
	}
	if len(b.Sparse[1][0]) != 1 {
		t.Fatalf("non-sequence table should be one-hot, got %d", len(b.Sparse[1][0]))
	}
	for tbl := range b.Sparse {
		rows := cfg.ScaledRowsPerTable[tbl]
		for _, idxs := range b.Sparse[tbl] {
			for _, ix := range idxs {
				if ix < 0 || int(ix) >= rows {
					t.Fatalf("index %d out of range %d", ix, rows)
				}
			}
		}
	}
}

func TestBatchSubset(t *testing.T) {
	g := NewGenerator(Avazu())
	b := g.NextBatch(8)
	sub := b.Subset([]int{1, 5, 7})
	if sub.Size() != 3 {
		t.Fatalf("subset size %d", sub.Size())
	}
	for j, i := range []int{1, 5, 7} {
		if sub.Labels[j] != b.Labels[i] {
			t.Fatal("subset labels wrong")
		}
		if sub.Dense.At(j, 0) != b.Dense.At(i, 0) {
			t.Fatal("subset dense wrong")
		}
		for tbl := range b.Sparse {
			if sub.Sparse[tbl][j][0] != b.Sparse[tbl][i][0] {
				t.Fatal("subset sparse wrong")
			}
		}
	}
}

func TestLabelsHaveBothClassesAndSignal(t *testing.T) {
	g := NewGenerator(CriteoKaggle())
	b := g.NextBatch(2000)
	ones := 0
	for _, l := range b.Labels {
		if l == 1 {
			ones++
		}
	}
	if ones < 200 || ones > 1800 {
		t.Fatalf("labels degenerate: %d/2000 positive", ones)
	}
}

func TestAccessProfileCountsAndSkew(t *testing.T) {
	g := NewGenerator(CriteoKaggle())
	p := NewAccessProfile(g.Cfg.NumTables)
	b := g.NextBatch(2000)
	p.Observe(b)
	if p.Total != 2000*26 {
		t.Fatalf("total accesses %d want %d", p.Total, 2000*26)
	}
	if p.SkewRatio() < 5 {
		t.Fatalf("Zipf data should be heavily skewed, ratio=%g", p.SkewRatio())
	}
	counts := p.Counts()
	for i := 1; i < len(counts); i++ {
		if counts[i].Count > counts[i-1].Count {
			t.Fatal("Counts must be sorted descending")
		}
	}
}

// The paper's core empirical claim: with a 512MB-equivalent hot budget, the
// large majority (~70-85%) of inputs are popular.
func TestPopularInputFractionMatchesPaper(t *testing.T) {
	for _, cfg := range AllDatasets() {
		cfg.Samples = 4096
		g := NewGenerator(cfg)
		prof := ProfileEpoch(g, 512)
		budget := ScaledHotBudget(cfg)
		placement := embedding.PlacementFromCounts(prof.Counts(), cfg.NumTables, cfg.EmbedDim, budget)
		frac := PopularInputFraction(NewGenerator(cfg), 2048, placement.IsHot)
		if frac < 0.55 || frac > 0.97 {
			t.Errorf("%s: popular fraction %.2f outside plausible paper range", cfg.Name, frac)
		}
	}
}

func TestDayDriftChangesPopularSet(t *testing.T) {
	cfg := CriteoTerabyte()
	same := DayOverlap(cfg, 0, 3, 3, 100)
	if same != 1 {
		t.Fatalf("self overlap = %g", same)
	}
	d1 := DayOverlap(cfg, 0, 0, 1, 100)
	d7 := DayOverlap(cfg, 0, 0, 7, 100)
	if d1 >= 1 {
		t.Fatal("one day of drift must change the popular set")
	}
	if d7 > d1 {
		t.Fatalf("overlap should decay with days: d1=%g d7=%g", d1, d7)
	}
}

func TestSetDayDeterministicAndOrderIndependent(t *testing.T) {
	cfg := Avazu()
	g1 := NewGenerator(cfg)
	g1.SetDay(5)
	g2 := NewGenerator(cfg)
	g2.SetDay(2)
	g2.SetDay(5)
	for r := 0; r < 50; r++ {
		if g1.RowForRank(0, r) != g2.RowForRank(0, r) {
			t.Fatal("SetDay must be path-independent")
		}
	}
}

// Property: every permutation produced for any day is a valid permutation.
func TestDayPermIsPermutationProperty(t *testing.T) {
	cfg := TaobaoAlibaba()
	f := func(dayRaw uint8, tableRaw uint8) bool {
		day := int(dayRaw) % 10
		table := int(tableRaw) % cfg.NumTables
		g := NewGenerator(cfg)
		g.SetDay(day)
		rows := cfg.ScaledRowsPerTable[table]
		seen := make(map[int32]struct{}, rows)
		for r := 0; r < rows; r++ {
			v := g.RowForRank(table, r)
			if v < 0 || int(v) >= rows {
				return false
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
		return len(seen) == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestScaledHotBudgetFloor(t *testing.T) {
	cfg := TaobaoAlibaba()
	b := ScaledHotBudget(cfg)
	if b < int64(cfg.EmbedDim)*4*64 {
		t.Fatalf("budget %d below floor", b)
	}
}

func TestTopKRows(t *testing.T) {
	g := NewGenerator(Avazu())
	p := NewAccessProfile(g.Cfg.NumTables)
	p.Observe(g.NextBatch(500))
	top := p.TopKRows(10)
	if len(top) != 10 {
		t.Fatalf("TopKRows returned %d", len(top))
	}
	if top[0].Count < top[9].Count {
		t.Fatal("TopKRows must be sorted")
	}
}

// BenchmarkZipfSample measures the workload generator's inner sampler.
func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(1_000_000, 1.1)
	rng := tensor.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(rng)
	}
}
