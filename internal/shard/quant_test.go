package shard

import (
	"testing"

	"hotline/internal/tensor"
)

// quantTable is a little authoritative row store for quant-path tests: rows
// deterministic, values chosen so the int8 round trip is lossy (the staged
// value must visibly differ from the exact row). row is the view a test
// registers: every staged row, warm-tier or fetched, is read from it.
type quantTable struct {
	dim int
}

func (qt quantTable) row(row int32) []float32 {
	v := make([]float32, qt.dim)
	for k := range v {
		v[k] = float32(row)*1.7 + float32(k)*0.313 + 0.111
	}
	return v
}

// TestQuantizedHitServesFusedRoundTrip: a warm-tier row's staged value must
// be exactly dequantize(quantize(current row)) — the fused kernel's output —
// from its FIRST touch: the serving width is a pure policy function of the
// row, never of cache residency (the fill that admits a row quantizes it),
// which is what keeps pipelined and synchronous quantized training
// bit-identical when their plan orders differ.
func TestQuantizedHitServesFusedRoundTrip(t *testing.T) {
	const dim = 16
	qt := quantTable{dim: dim}
	s := New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: dim * 4, Quant: QuantINT8}, nil)
	s.RegisterTable(0, 8, qt.row)
	g := s.Gatherer()
	idx := [][]int32{{1}} // batch position 0 = node 0; row 1 owned by node 1

	// First touch: miss — the fill transfer is priced as a full fabric row,
	// but the staged value is the round trip of the row being admitted.
	st := s.PlanGather(0, idx)
	if st == nil {
		t.Fatal("first touch must plan (it stages the quantized fill)")
	}
	if st.fabricRows() != 0 || st.Rows() != 1 || st.bytes != 0 {
		t.Fatalf("quantize-on-fill plan: fabric=%d staged=%d bytes=%d, want 0/1/0",
			st.fabricRows(), st.Rows(), st.bytes)
	}
	g.GatherSync(st)
	v, ok := st.Lookup(1)
	if !ok {
		t.Fatal("row 1 must stage")
	}
	exact := qt.row(1)
	want := make([]float32, dim)
	tensor.RoundTripI8(want, exact)
	for k := range v {
		if v[k] != want[k] {
			t.Fatalf("fill path elem %d = %g, want fused round trip %g", k, v[k], want[k])
		}
	}
	if st.Width(1) != WidthINT8 {
		t.Fatalf("quantized fill width = %v, want int8", st.Width(1))
	}
	st.Release()

	// Second touch: warm-tier hit, served through the fused kernel.
	st = s.PlanGather(0, idx)
	if st == nil {
		t.Fatal("quantized hit must still produce a plan (it stages)")
	}
	if st.fabricRows() != 0 || st.Rows() != 1 {
		t.Fatalf("quant hit plan: fabric=%d staged=%d, want 0/1", st.fabricRows(), st.Rows())
	}
	if st.bytes != 0 {
		t.Fatalf("quant hit moved %d fabric bytes, want 0", st.bytes)
	}
	g.GatherSync(st)
	v, ok = st.Lookup(1)
	if !ok {
		t.Fatal("quant hit must stage")
	}
	if st.Width(1) != WidthINT8 {
		t.Fatalf("quant hit width = %v, want int8", st.Width(1))
	}
	lossy := false
	for k := range v {
		if v[k] != want[k] {
			t.Fatalf("quant hit elem %d = %g, want fused round trip %g", k, v[k], want[k])
		}
		if v[k] != exact[k] {
			lossy = true
		}
	}
	if !lossy {
		t.Fatal("test rows must make the int8 round trip lossy, or the assertion is vacuous")
	}
	st.Release()

	snap := s.Snapshot()
	if snap.CacheHits != 1 || snap.QuantHits != 1 || snap.DequantRows != 2 {
		t.Fatalf("counters: hits=%d quantHits=%d dequantRows=%d, want 1/1/2",
			snap.CacheHits, snap.QuantHits, snap.DequantRows)
	}
	if snap.GatherRows != 1 || snap.GatherBytes != dim*4 {
		t.Fatalf("gather rows=%d bytes=%d, want 1/%d (the fill transfer is priced as a full fabric row)",
			snap.GatherRows, snap.GatherBytes, dim*4)
	}
}

// TestMixedModeTiersByPopularity: under QuantMixed classified-hot rows are
// admitted fp32 (exact hits) and the rest land in the warm int8 tier.
func TestMixedModeTiersByPopularity(t *testing.T) {
	const dim = 16
	qt := quantTable{dim: dim}
	hot := hotSet(0, 1) // row 1 is hot; row 3 is warm
	s := New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: dim * 4, Quant: QuantMixed}, hot)
	s.RegisterTable(0, 8, qt.row)
	g := s.Gatherer()
	idx := [][]int32{{1, 3}} // both remote for node 0

	st := s.PlanGather(0, idx) // both miss, both admitted
	g.GatherSync(st)
	st.Release()

	st = s.PlanGather(0, idx) // both hit, tiers differ
	if st == nil {
		t.Fatal("second touch must plan (warm hit stages)")
	}
	g.GatherSync(st)
	if w := st.Width(3); w != WidthINT8 {
		t.Fatalf("warm row width = %v, want int8", w)
	}
	if st.Has(1) {
		t.Fatal("hot fp32 hit must not stage at all (served from the shard like any cache hit)")
	}
	st.Release()

	snap := s.Snapshot()
	if snap.CacheHits != 2 || snap.QuantHits != 1 {
		t.Fatalf("hits=%d quantHits=%d, want 2/1", snap.CacheHits, snap.QuantHits)
	}
	// Byte accounting: one fp32 entry + one int8 entry.
	wantFill := WidthFP32.RowBytes(dim) + WidthINT8.RowBytes(dim)
	if snap.FillBytes != wantFill {
		t.Fatalf("fill bytes = %d, want %d (fp32 + int8 entry)", snap.FillBytes, wantFill)
	}
}

// TestQuantModeValidation: warm-width entries relax the minimum budget, and
// the quant-off minimum stays the fp32 row.
func TestQuantModeValidation(t *testing.T) {
	const dim = 16
	base := Config{Nodes: 2, RowBytes: dim * 4}
	c := base
	c.CacheBytes = WidthINT8.RowBytes(dim) // 20 bytes: holds one int8 row
	c.Quant = QuantINT8
	if err := c.Validate(); err != nil {
		t.Fatalf("int8 budget of one warm row must validate, got %v", err)
	}
	c.Quant = QuantOff
	if err := c.Validate(); err == nil {
		t.Fatal("fp32 cache smaller than one fp32 row must fail validation")
	}
}

// TestServePathServesQuantized: the read-only serve path routes warm-tier
// hits through the fused kernel too, with counters in the serve snapshot.
func TestServePathServesQuantized(t *testing.T) {
	const dim = 16
	qt := quantTable{dim: dim}
	s := New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: dim * 4, Quant: QuantINT8}, nil)
	s.RegisterTable(0, 8, qt.row)
	idx := [][]int32{{1}}

	st := s.PlanServeGather(0, idx) // miss: admits int8
	s.ServeGatherSync(st)
	st.Release()
	st = s.PlanServeGather(0, idx) // warm hit
	s.ServeGatherSync(st)
	v, ok := st.Lookup(1)
	if !ok || st.Width(1) != WidthINT8 {
		t.Fatalf("serve quant hit not staged quantized (ok=%v width=%v)", ok, st.Width(1))
	}
	want := make([]float32, dim)
	tensor.RoundTripI8(want, qt.row(1))
	for k := range v {
		if v[k] != want[k] {
			t.Fatalf("serve elem %d = %g, want %g", k, v[k], want[k])
		}
	}
	st.Release()

	sv := s.ServeSnapshot()
	if sv.QuantHits != 1 || sv.DequantRows != 2 {
		t.Fatalf("serve counters: quantHits=%d dequantRows=%d, want 1/2 (the fill stages quantized too)",
			sv.QuantHits, sv.DequantRows)
	}
	if tr := s.Snapshot(); tr.QuantHits != 0 {
		t.Fatal("serve quant traffic leaked into the training snapshot")
	}
}

// TestWarmTierHoldsMoreRowsEndToEnd: the service-level effective-capacity
// claim — at the same CacheBytes, an int8-tier service retains >= 2x the
// rows of the fp32 service under an identical access stream.
func TestWarmTierHoldsMoreRowsEndToEnd(t *testing.T) {
	const dim = 16
	budget := int64(64 * dim * 4) // 64 fp32 rows
	stream := make([][]int32, 1)
	for r := int32(0); r < 1000; r++ {
		stream[0] = append(stream[0], r)
	}
	run := func(q QuantMode) int {
		s := register(New(Config{Nodes: 2, CacheBytes: budget, RowBytes: dim * 4, Quant: q}, nil), len(stream[0]), 0)
		s.RecordGather(0, stream)
		return s.CacheEntries()
	}
	fp32Rows, i8Rows := run(QuantOff), run(QuantINT8)
	if fp32Rows == 0 {
		t.Fatal("fp32 cache must retain rows")
	}
	if i8Rows < 2*fp32Rows {
		t.Fatalf("int8 tier holds %d rows vs %d fp32 at the same budget; want >= 2x", i8Rows, fp32Rows)
	}
}

// TestQuantRepairMatchesSyncGather: a dirtied warm-tier staged row must be
// repaired to exactly what a fresh quantized gather of the updated bits
// would serve (the depth-k determinism contract in quantized mode).
func TestQuantRepairMatchesSyncGather(t *testing.T) {
	const dim = 16
	store := map[int32][]float32{}
	for r := int32(0); r < 8; r++ {
		row := make([]float32, dim)
		for k := range row {
			row[k] = float32(r)*1.7 + float32(k)*0.313 + 0.111
		}
		store[r] = row
	}
	s := New(Config{Nodes: 2, CacheBytes: 1 << 12, RowBytes: dim * 4, Quant: QuantINT8}, nil)
	s.RegisterTable(0, len(store), func(row int32) []float32 { return store[row] })
	g := s.Gatherer()
	idx := [][]int32{{1}}

	// Warm the cache: row 1 becomes an int8 entry.
	st := s.PlanGather(0, idx)
	g.GatherSync(st)
	st.Release()

	// Issue a prefetch window whose staged row is then updated.
	st = s.PlanGather(0, idx)
	g.Submit(st)
	s.MarkDirty(0, []int32{1})
	for k := range store[1] {
		store[1][k] += 5 // the sparse update the window must observe
	}
	st.Consume()
	v, ok := st.Lookup(1)
	if !ok {
		t.Fatal("row 1 must stage")
	}
	want := make([]float32, dim)
	tensor.RoundTripI8(want, store[1])
	for k := range v {
		if v[k] != want[k] {
			t.Fatalf("repaired elem %d = %g, want re-quantized current bits %g", k, v[k], want[k])
		}
	}
	st.Release()

	// Repair accounting: one row at the int8 footprint, no fabric fetch.
	os := g.Stats()
	if os.RepairRows != 1 || os.RepairBytes != WidthINT8.RowBytes(dim) {
		t.Fatalf("repair: rows=%d bytes=%d, want 1/%d", os.RepairRows, os.RepairBytes, WidthINT8.RowBytes(dim))
	}
}
