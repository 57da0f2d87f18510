package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
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

// TestZipfGuideMatchesBinarySearch checks the guide-table inversion against
// its oracle, a binary search over the CDF: on random draws (the same u for
// both, from a copy of the RNG), on every bucket edge j/G, and on each
// sampled rank's CDF value and the float just below it.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1024, 1025, 24_000} {
		for _, s := range []float64{0, 0.5, 1.05, 1.6, 3} {
			z := NewZipf(n, s)
			rng := tensor.NewRNG(uint64(n)*31 + uint64(s*100))
			check := func(u float64, got int) {
				if want := sort.SearchFloat64s(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%g u=%v: guide walk %d, binary search %d", n, s, u, got, want)
				}
			}
			sampled := map[int]bool{}
			for range 20_000 {
				peek := *rng
				u := peek.Float64()
				r := z.Sample(rng)
				check(u, r)
				sampled[r] = true
			}
			G := len(z.guide)
			if G < n || G&(G-1) != 0 || (G > 1 && G/2 >= n) {
				t.Fatalf("n=%d: guide size %d is not the smallest power of two >= n", n, G)
			}
			for j := 0; j < G; j++ {
				u := float64(j) / float64(G)
				check(u, z.rank(u))
			}
			for r := range sampled {
				for _, u := range []float64{z.cdf[r], math.Nextafter(z.cdf[r], 0)} {
					if u < 1 {
						check(u, z.rank(u))
					}
				}
			}
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
	// Samples share a slab per table; an append must reallocate, never
	// write into the next sample's lookups.
	next := b.Sparse[0][1][0]
	_ = append(b.Sparse[0][0], -1)
	if b.Sparse[0][1][0] != next {
		t.Fatal("append to one sample's lookups overwrote its neighbour's")
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

// TestPopularInputFractionRule pins the paper's classification rule exactly:
// an input is popular only when every access it makes, across all tables,
// is hot — one cold access makes the whole input non-popular.
func TestPopularInputFractionRule(t *testing.T) {
	cfg := CriteoKaggle()
	cfg.Samples = 4096
	const n = 512
	// Mixed: a profiled hot set over 26 one-hot tables, so inputs are
	// popular, non-popular on a single lookup, or further from the hot set.
	placement := embedding.PlacementFromCounts(ProfileEpoch(NewGenerator(cfg), 512).Counts(),
		cfg.NumTables, cfg.EmbedDim, ScaledHotBudget(cfg))
	mixed := placement.IsHot
	b := NewGenerator(cfg).NextBatch(n)
	popular, partly := 0, 0
	for i := 0; i < n; i++ {
		cold := 0
		for tb := range b.Sparse {
			for _, ix := range b.Sparse[tb][i] {
				if !mixed(tb, ix) {
					cold++
				}
			}
		}
		if cold == 0 {
			popular++
		} else if cold == 1 {
			partly++
		}
	}
	if popular == 0 || popular == n || partly == 0 {
		t.Fatalf("predicate must mix: %d popular, %d with one cold access, of %d", popular, partly, n)
	}
	if got, want := PopularInputFraction(NewGenerator(cfg), n, mixed), float64(popular)/n; got != want {
		t.Fatalf("mixed: fraction %v, direct count %v", got, want)
	}
	allHot := func(int, int32) bool { return true }
	allCold := func(int, int32) bool { return false }
	if got := PopularInputFraction(NewGenerator(cfg), n, allHot); got != 1 {
		t.Fatalf("all-hot: fraction %v, want 1", got)
	}
	if got := PopularInputFraction(NewGenerator(cfg), n, allCold); got != 0 {
		t.Fatalf("all-cold: fraction %v, want 0", got)
	}
	if got := PopularInputFraction(NewGenerator(cfg), 0, allHot); got != 0 {
		t.Fatalf("no samples: fraction %v, want 0", got)
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

// synMHShape is the multi-hot benchmark model's shape: 8 tables of 2 000 to
// 24 000 rows, 8 pooled lookups each.
func synMHShape(zipf float64) Config {
	rows := []int{24000, 16000, 12000, 8000, 6000, 4000, 3000, 2000}
	full := make([]int64, len(rows))
	for i, r := range rows {
		full[i] = int64(r) * 1000
	}
	return Config{
		Name: "SYN-MH", RM: "SYN-MH",
		DenseFeatures: 13, NumTables: len(rows),
		FullRowsPerTable: full, ScaledRowsPerTable: rows,
		LookupsPerTable: 8, ZipfS: zipf, DriftPerDay: 0.10, HotFracRows: 0.20,
		EmbedDim: 64, BotMLP: []int{13, 64}, TopMLP: []int{1},
		Samples: 4096, ScaleFactor: 1000, FullSizeGB: 19,
	}
}

// TestNextBatchAllocsPerTable gates the generator's allocations: one index
// slab and one view slice per table plus a constant, never one per sample.
func TestNextBatchAllocsPerTable(t *testing.T) {
	for _, cfg := range []Config{CriteoKaggle(), synMHShape(1.05), TaobaoAlibaba()} {
		g := NewGenerator(cfg)
		got := testing.AllocsPerRun(5, func() { g.NextBatch(256) })
		if limit := float64(2*cfg.NumTables + 8); got > limit {
			t.Errorf("%s: NextBatch(256) allocates %.0f times, want at most %.0f", cfg.Name, got, limit)
		}
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

// BenchmarkNextBatch measures one batch-256 draw at the Kaggle RM2 and
// SYN-MH shapes, the batches the end-to-end benchmark pre-generates.
func BenchmarkNextBatch(b *testing.B) {
	for _, cfg := range []Config{CriteoKaggle(), synMHShape(1.05)} {
		b.Run(cfg.RM, func(b *testing.B) {
			g := NewGenerator(cfg)
			b.ReportAllocs()
			for b.Loop() {
				g.NextBatch(256)
			}
		})
	}
}

// streamDigest hashes the first three NextBatch(64) draws of cfg (from day
// if it is not 0): the dense bits, the sparse ids in table, sample, lookup
// order, then the label bits, batch by batch.
func streamDigest(cfg Config, day int) string {
	g := NewGenerator(cfg)
	if day != 0 {
		g.SetDay(day)
	}
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	for range 3 {
		b := g.NextBatch(64)
		for _, v := range b.Dense.Data {
			put(math.Float32bits(v))
		}
		for _, tbl := range b.Sparse {
			for _, idxs := range tbl {
				for _, ix := range idxs {
					put(uint32(ix))
				}
			}
		}
		for _, l := range b.Labels {
			put(math.Float32bits(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamDigest pins the generated stream across builds: every
// consumer (batch pools, serve corpora, ProfileEpoch, the experiments)
// trains on exactly these bits, so a faster sampler must reproduce them.
// TestGeneratorDeterministic only compares a binary with itself.
func TestGeneratorStreamDigest(t *testing.T) {
	flat, steep := CriteoKaggle(), CriteoKaggle()
	flat.Name, flat.ZipfS = "Kaggle s=0", 0
	steep.Name, steep.ZipfS = "Kaggle s=3", 3
	cases := []struct {
		cfg  Config
		day  int
		want string
	}{
		{CriteoKaggle(), 0, "25cc28f3705a0818283ea03158cf78c991debe07d4b80c8ff4413f1778d080e1"},
		{TaobaoAlibaba(), 0, "edefed915c3efa8c9fb4a208a91a4ad81a9a2de4458439a0750af6c7191e690c"},
		{CriteoTerabyte(), 0, "2dc07d0af1739bb94a2cfb204775ef8705fe1ff9dfc879368dcf73351b5411c3"},
		{Avazu(), 0, "35896ef2324c73c18eebf1eaa353bcffdcabc2ae44cec56641a6c3e7985e01f6"},
		{SynM1(), 0, "82ebee3afe730ed3a0ade5800db4dcf32e057f66fb5e53e2b23acfefca9f1b79"},
		{SynM2(), 0, "be482a5692e5409d3885ddea697622f2d88cd73134416dea38b93e5196950bb1"},
		{flat, 0, "2d481ef2dfcf2e392be916e9e1edce6b9e5f05321c01de46b5feeeaaaf4d3e05"},
		{steep, 0, "42db7cfac9ad4e6afa9f47eda11da7776a390c52d0e9fb11684772b0c5d26b13"},
		{CriteoKaggle(), 2, "8ee21509bf5a0d3aa72eeccf74729497d5e0b65762926984fa746337215cfa44"},
	}
	for _, c := range cases {
		if got := streamDigest(c.cfg, c.day); got != c.want {
			t.Errorf("%s day %d: stream digest %s, want %s", c.cfg.Name, c.day, got, c.want)
		}
	}
}
