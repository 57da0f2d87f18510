package accel

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hotline/internal/data"
	"hotline/internal/tensor"
)

func TestFeistelBijective(t *testing.T) {
	f := NewFeistel(7)
	rng := tensor.NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := uint32(rng.Uint64())
		if f.Inverse(f.Permute(v)) != v {
			t.Fatalf("Feistel not bijective at %x", v)
		}
	}
}

// Property: Permute is injective on any sampled set (no collisions).
func TestFeistelNoCollisionsProperty(t *testing.T) {
	f := NewFeistel(9)
	fn := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		seenIn := make(map[uint32]uint32)
		for i := 0; i < 500; i++ {
			v := uint32(rng.Uint64())
			out := f.Permute(v)
			if prev, ok := seenIn[out]; ok && prev != v {
				return false
			}
			seenIn[out] = v
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFeistelScattersBanks(t *testing.T) {
	// Sequential indices of one table must spread across banks near-uniformly.
	e := NewEAL(DefaultEALConfig())
	counts := make([]int, e.Cfg.Banks)
	n := 64 * 256
	for i := 0; i < n; i++ {
		counts[e.Bank(3, int32(i))]++
	}
	want := n / e.Cfg.Banks
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bank %d has %d of expected %d (poor scatter)", b, c, want)
		}
	}
}

func TestEALCapacityMatchesPaper(t *testing.T) {
	cfg := DefaultEALConfig()
	if cfg.Entries() != 2<<20 {
		t.Fatalf("4MB at 2B/entry must give 2M blocks, got %d", cfg.Entries())
	}
	e := NewEAL(cfg)
	if e.Capacity() != 2<<20 {
		t.Fatalf("EAL capacity = %d", e.Capacity())
	}
}

func TestEALHitPromotesAndTracks(t *testing.T) {
	e := NewEAL(EALConfig{SizeBytes: 1 << 12, Banks: 4, Ways: 4, Seed: 1})
	if e.Touch(0, 42) {
		t.Fatal("first touch must miss")
	}
	if !e.Touch(0, 42) {
		t.Fatal("second touch must hit")
	}
	if !e.Contains(0, 42) {
		t.Fatal("Contains must see tracked entry")
	}
	if e.Contains(1, 42) {
		t.Fatal("other table must not alias")
	}
	if e.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g", e.HitRate())
	}
}

func TestEALEvictsUnderPressure(t *testing.T) {
	e := NewEAL(EALConfig{SizeBytes: 256, Banks: 2, Ways: 2, Seed: 1})
	cap := e.Capacity()
	for i := 0; i < cap*4; i++ {
		e.Touch(0, int32(i))
	}
	if e.Evicts == 0 {
		t.Fatal("overfilling must evict")
	}
	if e.Occupancy() != 1 {
		t.Fatalf("occupancy should be full, got %g", e.Occupancy())
	}
	e.Reset()
	if e.Occupancy() != 0 || e.Hits != 0 {
		t.Fatal("Reset must clear state")
	}
}

// SRRIP protects frequently re-referenced entries against a scan: touch a
// hot set repeatedly, stream a long scan through, hot set should survive
// better than scan entries.
func TestSRRIPScanResistance(t *testing.T) {
	e := NewEAL(EALConfig{SizeBytes: 4 << 10, Banks: 4, Ways: 8, Seed: 3})
	hot := 64
	for r := 0; r < 20; r++ {
		for i := 0; i < hot; i++ {
			e.Touch(0, int32(i))
		}
		for i := 0; i < 512; i++ {
			e.Touch(1, int32(1000+r*512+i)) // one-shot scan, never repeats
		}
	}
	kept := 0
	for i := 0; i < hot; i++ {
		if e.Contains(0, int32(i)) {
			kept++
		}
	}
	if float64(kept)/float64(hot) < 0.8 {
		t.Fatalf("SRRIP should retain hot set under scan: kept %d/%d", kept, hot)
	}
}

// The paper's claim behind Figure 15: the SRRIP EAL tracks ~90% of what an
// oracle LFU of equal capacity tracks, on Zipfian traffic.
func TestEALTracksMostOfOracle(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 2048
	gen := data.NewGenerator(cfg)
	ealCfg := EALConfig{SizeBytes: 1 << 14, Banks: 8, Ways: 8, Seed: 5}
	e := NewEAL(ealCfg)
	oracle := NewOracleLFU(e.Capacity())
	for i := 0; i < 4; i++ {
		b := gen.NextBatch(512)
		for tbl := range b.Sparse {
			for _, idxs := range b.Sparse[tbl] {
				for _, ix := range idxs {
					e.Touch(tbl, ix)
					oracle.Touch(tbl, ix)
				}
			}
		}
	}
	tracked := oracle.TrackedSet()
	if len(tracked) == 0 {
		t.Fatal("oracle tracked nothing")
	}
	hit := 0
	for k := range tracked {
		if e.Contains(int(k>>32), int32(uint32(k))) {
			hit++
		}
	}
	cov := float64(hit) / float64(len(tracked))
	if cov < 0.55 {
		t.Fatalf("EAL covers %.2f of oracle set, want most of it", cov)
	}
}

func TestParallelRequestsMatchFig16(t *testing.T) {
	// Paper: a 512-entry queue over 64 banks sustains ~60 parallel requests.
	got := ParallelRequestsPerIteration(512, 64, 64, 128)
	if got < 55 || got > 64 {
		t.Fatalf("512q/64banks = %.1f parallel requests, want ~60", got)
	}
	// Small queues starve the banks.
	small := ParallelRequestsPerIteration(8, 64, 64, 128)
	if small >= got || small > 8 {
		t.Fatalf("8-entry queue should issue <= 8, got %.1f", small)
	}
	// More banks with a big queue -> more parallelism.
	if ParallelRequestsPerIteration(512, 8, 64, 128) >= got {
		t.Fatal("8 banks must issue fewer than 64 banks")
	}
}

func TestEDRAMCapacityMatchesPaper(t *testing.T) {
	// §V-A: 2.5 MB of eDRAM stages mini-batches of up to 16K inputs.
	ed := DefaultInputEDRAM()
	// A Criteo-like input: 26 tables x 4B index + misc ≈ 150B.
	if got := ed.MaxInputs(150); got < 16000 {
		t.Fatalf("eDRAM should hold >= 16K inputs, got %d", got)
	}
	if ed.MaxInputs(0) != 0 {
		t.Fatal("zero-size input guard failed")
	}
}

func TestAcceleratorLearnAndClassify(t *testing.T) {
	cfg := data.CriteoKaggle()
	cfg.Samples = 2048
	gen := data.NewGenerator(cfg)
	acc := New(DefaultConfig())

	// Learning phase over a few batches.
	for i := 0; i < 4; i++ {
		acc.LearnBatch(gen.NextBatch(512))
	}
	cl := acc.Classify(data.NewGenerator(cfg).NextBatch(1024))
	if got := len(cl.PopularIdx) + len(cl.NonPopularIdx); got != 1024 {
		t.Fatalf("classification must partition the batch, got %d", got)
	}
	if cl.TotalLookups != 1024*26 {
		t.Fatalf("TotalLookups = %d", cl.TotalLookups)
	}
	// With the big default EAL nearly all replayed traffic should be popular.
	if cl.PopularFraction() < 0.5 {
		t.Fatalf("popular fraction %.2f too low after learning", cl.PopularFraction())
	}
	if cl.ColdLookups == 0 {
		t.Log("note: zero cold lookups (fine for high-skew synthetic data)")
	}
}

func TestMaybeLearnSamplesAtRate(t *testing.T) {
	cfg := data.TaobaoAlibaba()
	gen := data.NewGenerator(cfg)
	acc := New(DefaultConfig()) // 5%
	learned := 0
	for i := 0; i < 100; i++ {
		if acc.MaybeLearn(gen.NextBatch(8)) {
			learned++
		}
	}
	if learned != 5 {
		t.Fatalf("5%% of 100 batches = 5, got %d", learned)
	}
}

func TestISARoundTrip(t *testing.T) {
	ins := []Instruction{
		{OpDMARead, 12345, 4096},
		{OpDMAWrite, 1, 8},
		{OpVAdd, 0, 3},
		{OpVMul, 7, 0},
		{OpSWr, 3, 0x0FFFFFFF},
		{OpGPURd, 2, 999},
	}
	for _, in := range ins {
		got, err := Decode(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Fatalf("roundtrip %v -> %v", in, got)
		}
	}
	if _, err := Decode(uint64(200) << 56); err == nil {
		t.Fatal("invalid opcode must fail to decode")
	}
	if OpDMARead.String() != "dma_rd" || Opcode(99).String() == "" {
		t.Fatal("opcode names wrong")
	}
}

// Property: Encode/Decode round-trips any in-range instruction.
func TestISARoundTripProperty(t *testing.T) {
	f := func(op uint8, o1, o2 uint32) bool {
		in := Instruction{Op: Opcode(op % uint8(opCount)), Op1: o1 & operandMask, Op2: o2 & operandMask}
		got, err := Decode(in.Encode())
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDriverExecutesGatherReduce(t *testing.T) {
	// Host memory holds two embedding rows; program gathers and sums them.
	host := []float32{1, 2, 3, 4, 10, 20, 30, 40}
	d := NewDriver(host, 4)
	scratch := make([]float32, 8)

	prog := []Instruction{
		{OpDMARead, 0, 16}, // row 0 -> scratch[0:4]
		{OpVAdd, 0, 0},     // vecbuf += scratch[0:4]
		{OpDMARead, 4, 16}, // row 1 -> scratch[0:4]
		{OpVAdd, 0, 0},
	}
	for _, in := range prog {
		if err := d.Execute(in, scratch); err != nil {
			t.Fatal(err)
		}
	}
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if d.VecBuf[i] != w {
			t.Fatalf("vecbuf = %v want %v", d.VecBuf, want)
		}
	}
	// Write the pooled vector back.
	copy(scratch, d.VecBuf)
	if err := d.Execute(Instruction{OpDMAWrite, 0, 16}, scratch); err != nil {
		t.Fatal(err)
	}
	if host[0] != 11 {
		t.Fatalf("dma_wr failed: %v", host[:4])
	}
	if d.Executed != 5 {
		t.Fatalf("executed = %d", d.Executed)
	}
}

func TestDriverGPUReadAndErrors(t *testing.T) {
	d := NewDriver(make([]float32, 16), 2)
	d.GPUMem[0] = []float32{5, 6, 7, 8}
	if err := d.Execute(Instruction{OpGPURd, 0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if d.VecBuf[0] != 7 || d.VecBuf[1] != 8 {
		t.Fatalf("gpu_rd row 1 = %v", d.VecBuf)
	}
	if err := d.Execute(Instruction{OpGPURd, 9, 0}, nil); err == nil {
		t.Fatal("unknown device must error")
	}
	if err := d.Execute(Instruction{OpDMARead, 1 << 20, 64}, make([]float32, 64)); err == nil {
		t.Fatal("out-of-range dma must error")
	}
	if err := d.Execute(Instruction{OpSWr, 99, 0}, nil); err == nil {
		t.Fatal("bad reg must error")
	}
	if err := d.Execute(Instruction{OpSWr, 3, 0xABC}, nil); err != nil || d.AddrRegs[3] != 0xABC {
		t.Fatal("s_wr failed")
	}
}

func TestPowerModelMatchesTable4(t *testing.T) {
	p := DefaultPowerModel()
	if math.Abs(p.TotalArea()-7.01) > 0.01 {
		t.Fatalf("total area %.2f mm², Table IV says 7.01", p.TotalArea())
	}
	if p.AvgEnergyMilliJ != 132 {
		t.Fatalf("avg energy %.0f mJ, Table IV says 132", p.AvgEnergyMilliJ)
	}
	// EAL must dominate area and power (Figure 29).
	for _, b := range p.Blocks {
		if b.Component != CompEAL && b.AreaMM2 >= p.Blocks[0].AreaMM2 {
			t.Fatal("EAL must be the largest block")
		}
	}
}

func TestPerfPerWatt(t *testing.T) {
	base := PerfPerWatt(100, 4, false)
	withAcc := PerfPerWatt(100, 4, true)
	if withAcc >= base {
		t.Fatal("adding accelerator power must reduce perf/Watt at equal throughput")
	}
	// But a >1.1x throughput gain should more than recover it.
	if PerfPerWatt(220, 4, true) <= base {
		t.Fatal("2.2x throughput must win perf/Watt despite accelerator power")
	}
}

// TestClassifyZeroAllocSteadyState: the acceleration-phase classification
// reuses its index scratch and the per-call probe memo, so classifying a
// mini-batch allocates nothing after warm-up (the accelerator sits on the
// critical path of every training step).
func TestClassifyZeroAllocSteadyState(t *testing.T) {
	cfg := data.CriteoKaggle()
	acc := New(DefaultConfig())
	gen := data.NewGenerator(cfg)
	for i := 0; i < 2; i++ {
		acc.LearnBatch(gen.NextBatch(1024))
	}
	batch := gen.NextBatch(2048)
	for i := 0; i < 3; i++ {
		acc.Classify(batch)
	}
	if n := testing.AllocsPerRun(20, func() { acc.Classify(batch) }); n > 0 {
		t.Fatalf("Classify allocated %.1f times per batch, want 0", n)
	}
}

// directClassify is Classify without the memo: one EAL.Contains probe per
// lookup.
func directClassify(e *EAL, b *data.Batch) Classification {
	var cl Classification
	for i := 0; i < b.Size(); i++ {
		popular := true
		for t := range b.Sparse {
			for _, ix := range b.Sparse[t][i] {
				cl.TotalLookups++
				if !e.Contains(t, ix) {
					popular = false
					cl.ColdLookups++
				}
			}
		}
		if popular {
			cl.PopularIdx = append(cl.PopularIdx, i)
		} else {
			cl.NonPopularIdx = append(cl.NonPopularIdx, i)
		}
	}
	return cl
}

func sameClassification(a, b Classification) bool {
	return slices.Equal(a.PopularIdx, b.PopularIdx) && slices.Equal(a.NonPopularIdx, b.NonPopularIdx) &&
		a.ColdLookups == b.ColdLookups && a.TotalLookups == b.TotalLookups
}

// TestClassifyMemoMatchesDirectProbe: the memo must be invisible. It lives
// across Classify calls until the EAL's contents change, so a fixed schedule
// interleaves classification with every way they change — sampled and
// forced learning into an EAL small enough to evict, a reset, another EAL —
// and each classification must equal one built from direct EAL.Contains
// probes. A classification with no change since the last one must reuse the
// memo's epoch.
func TestClassifyMemoMatchesDirectProbe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EAL.SizeBytes = 16 << 10 // 8K entries: learning evicts
	cfg.SampleRate = 0.25
	acc := New(cfg)
	gen := data.NewGenerator(data.CriteoKaggle())
	for step := 0; step < 48; step++ {
		b := gen.NextBatch(256)
		switch step % 16 {
		case 5:
			acc.EAL.Reset()
		case 11:
			acc.EAL = NewEAL(cfg.EAL)
		}
		if step%3 == 0 {
			acc.LearnBatch(b)
		}
		acc.MaybeLearn(b)
		if got, want := acc.Classify(b), directClassify(acc.EAL, b); !sameClassification(got, want) {
			t.Fatalf("step %d: memoised classification %+v, direct probes %+v", step, got, want)
		}
		epoch := acc.memo.epoch
		other := gen.NextBatch(256)
		if got, want := acc.Classify(other), directClassify(acc.EAL, other); !sameClassification(got, want) {
			t.Fatalf("step %d, unlearned batch: memoised classification %+v, direct probes %+v", step, got, want)
		}
		if acc.memo.epoch != epoch {
			t.Fatalf("step %d: the memo restarted (epoch %d -> %d) with the EAL unchanged", step, epoch, acc.memo.epoch)
		}
	}
}

// TestClassifyMemoEpochWrap: when the memo's epoch counter wraps, no cell may
// answer — least of all one nothing has written, which holds key 0 (table 0,
// row 0) at epoch 0 with the answer "not tracked".
func TestClassifyMemoEpochWrap(t *testing.T) {
	acc := New(DefaultConfig())
	acc.EAL.Touch(0, 0) // table 0, row 0 is tracked; row 1 is not
	acc.memo.epoch = math.MaxUint32
	b := &data.Batch{Sparse: [][][]int32{{{0}, {1}}}, Labels: make([]float32, 2)}
	want := Classification{PopularIdx: []int{0}, NonPopularIdx: []int{1}, ColdLookups: 1, TotalLookups: 2}
	if got := acc.Classify(b); !sameClassification(got, want) {
		t.Fatalf("classification across the epoch wrap = %+v, want %+v", got, want)
	}
}
