package pipeline

import (
	"math"
	"testing"

	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/data"
)

func kaggle4GPU(t *testing.T) Workload {
	t.Helper()
	return NewWorkload(data.CriteoKaggle(), 4096, cost.PaperSystem(4))
}

func geomean(vals []float64) float64 {
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vals)))
}

func TestMeasureStatsPlausible(t *testing.T) {
	for _, cfg := range data.AllDatasets() {
		p, c := MeasureStats(cfg)
		if p < 0.5 || p > 0.98 {
			t.Errorf("%s popular fraction %.2f implausible", cfg.Name, p)
		}
		if c <= 0 || c > 0.2 {
			t.Errorf("%s cold lookup fraction %.3f implausible", cfg.Name, c)
		}
	}
}

func TestWorkloadDerivedQuantities(t *testing.T) {
	w := kaggle4GPU(t)
	if w.LookupsPerSample() != 26 {
		t.Fatalf("Kaggle lookups/sample = %d", w.LookupsPerSample())
	}
	if w.TotalLookups() != 4096*26 {
		t.Fatalf("total lookups = %d", w.TotalLookups())
	}
	if w.RowBytes() != 64 {
		t.Fatalf("row bytes = %d", w.RowBytes())
	}
	if w.PerGPUBatch() != 1024 {
		t.Fatalf("per-GPU batch = %d", w.PerGPUBatch())
	}
	if w.PooledEmbBytes(1) != 26*64 {
		t.Fatalf("pooled bytes/sample = %d", w.PooledEmbBytes(1))
	}
	if w.DenseFwdFLOPs(1) <= 0 || w.DenseParamBytes() <= 0 {
		t.Fatal("dense quantities must be positive")
	}
	// TBSM counts the sequence steps.
	wt := NewWorkload(data.TaobaoAlibaba(), 1024, cost.PaperSystem(1))
	if wt.LookupsPerSample() != 21+2 {
		t.Fatalf("Taobao lookups/sample = %d", wt.LookupsPerSample())
	}
}

func TestAllPipelinesProduceSaneIterations(t *testing.T) {
	w := kaggle4GPU(t)
	for _, p := range All() {
		st := p.Iteration(w)
		if st.OOM {
			t.Fatalf("%s should not OOM on Kaggle", p.Name())
		}
		if st.Total <= 0 {
			t.Fatalf("%s: non-positive iteration", p.Name())
		}
		if st.Phases.Total() != st.Total {
			t.Fatalf("%s: phases (%v) must sum to total (%v)", p.Name(), st.Phases.Total(), st.Total)
		}
		if st.Total.Millis() > 500 {
			t.Fatalf("%s: iteration %v absurdly long", p.Name(), st.Total)
		}
	}
}

// Figure 19's ordering: XDL slowest, then Intel DLRM, then FAE, Hotline
// fastest of the hybrid-memory systems.
func TestFig19Ordering(t *testing.T) {
	for _, gpus := range []int{1, 2, 4} {
		sys := cost.PaperSystem(gpus)
		for _, cfg := range data.AllDatasets() {
			w := NewWorkload(cfg, 1024*gpus, sys)
			xdl := NewXDL().Iteration(w).Total
			dlrm := NewIntelDLRM().Iteration(w).Total
			fae := NewFAE().Iteration(w).Total
			hl := NewHotline().Iteration(w).Total
			if !(xdl > dlrm && dlrm > fae && fae > hl) {
				t.Errorf("%s %dGPU ordering broken: xdl=%v dlrm=%v fae=%v hotline=%v",
					cfg.Name, gpus, xdl, dlrm, fae, hl)
			}
		}
	}
}

// The headline claim: Hotline averages ~2.2x over Intel-optimized DLRM
// (we accept a 1.5x-4.5x band per dataset; the paper's geomean is 2.2-3.1
// depending on GPU count).
func TestHeadlineSpeedupBand(t *testing.T) {
	var ratios []float64
	for _, gpus := range []int{1, 2, 4} {
		sys := cost.PaperSystem(gpus)
		for _, cfg := range data.AllDatasets() {
			w := NewWorkload(cfg, 1024*gpus, sys)
			r := Speedup(NewIntelDLRM().Iteration(w), NewHotline().Iteration(w))
			if r < 1.5 || r > 5.5 {
				t.Errorf("%s %dGPU: Hotline/DLRM = %.2f outside band", cfg.Name, gpus, r)
			}
			ratios = append(ratios, r)
		}
	}
	gm := geomean(ratios)
	if gm < 2.0 || gm > 4.0 {
		t.Errorf("geomean Hotline/DLRM speedup %.2f, paper reports 2.2-3.1", gm)
	}
}

// FAE comparison (paper: 1.4-1.5x).
func TestFAESpeedupBand(t *testing.T) {
	var ratios []float64
	for _, gpus := range []int{1, 2, 4} {
		sys := cost.PaperSystem(gpus)
		for _, cfg := range data.AllDatasets() {
			w := NewWorkload(cfg, 1024*gpus, sys)
			ratios = append(ratios, Speedup(NewFAE().Iteration(w), NewHotline().Iteration(w)))
		}
	}
	gm := geomean(ratios)
	if gm < 1.2 || gm > 2.5 {
		t.Errorf("geomean Hotline/FAE = %.2f, paper reports ~1.4-1.5", gm)
	}
}

// HugeCTR comparison (Figure 22): Hotline modestly ahead at 4 GPUs thanks
// to eliminating all-to-all; Terabyte OOMs below 4 GPUs.
func TestHugeCTRComparison(t *testing.T) {
	hc := NewHugeCTR()
	hl := NewHotline()

	for _, gpus := range []int{1, 2} {
		w := NewWorkload(data.CriteoTerabyte(), 1024*gpus, cost.PaperSystem(gpus))
		if st := hc.Iteration(w); !st.OOM {
			t.Errorf("Terabyte (63GB) must OOM HugeCTR on %d GPU(s)", gpus)
		}
		if st := hl.Iteration(w); st.OOM || st.Total <= 0 {
			t.Error("Hotline must train Terabyte on a single GPU (paper §VII-C)")
		}
	}
	w := NewWorkload(data.CriteoTerabyte(), 4096, cost.PaperSystem(4))
	if st := hc.Iteration(w); st.OOM {
		t.Error("Terabyte fits 4 GPUs (64GB HBM)")
	}

	// 4-GPU speedup band around the paper's 1.13x.
	var ratios []float64
	for _, cfg := range data.AllDatasets() {
		w := NewWorkload(cfg, 4096, cost.PaperSystem(4))
		hcSt := hc.Iteration(w)
		if hcSt.OOM {
			continue
		}
		ratios = append(ratios, Speedup(hcSt, hl.Iteration(w)))
	}
	gm := geomean(ratios)
	if gm < 1.0 || gm > 1.4 {
		t.Errorf("Hotline/HugeCTR 4GPU geomean = %.2f, paper reports ~1.13", gm)
	}
}

// ScratchPipe-Ideal (Figure 24): parity at 1 GPU, Hotline ahead at 4 GPUs.
func TestScratchPipeComparison(t *testing.T) {
	sp := NewScratchPipeIdeal()
	hl := NewHotline()
	var one, four []float64
	for _, cfg := range data.AllDatasets() {
		w1 := NewWorkload(cfg, 1024, cost.PaperSystem(1))
		one = append(one, Speedup(sp.Iteration(w1), hl.Iteration(w1)))
		w4 := NewWorkload(cfg, 4096, cost.PaperSystem(4))
		four = append(four, Speedup(sp.Iteration(w4), hl.Iteration(w4)))
	}
	if gm := geomean(one); gm < 0.85 || gm > 1.6 {
		t.Errorf("1-GPU Hotline/ScratchPipe = %.2f, paper says similar (~1.0)", gm)
	}
	gm4 := geomean(four)
	if gm4 < 1.1 || gm4 > 2.2 {
		t.Errorf("4-GPU Hotline/ScratchPipe = %.2f, paper reports ~1.2", gm4)
	}
	if gm4 <= geomean(one) {
		t.Error("Hotline's edge must grow with GPUs (all-to-all scaling)")
	}
}

// Hotline-CPU ablation (Figure 23): the accelerator wins, increasingly so
// with more GPUs, up to ~3.5x.
func TestHotlineCPUComparison(t *testing.T) {
	hc := NewHotlineCPU()
	hl := NewHotline()
	prev := 0.0
	for _, gpus := range []int{1, 2, 4} {
		var rs []float64
		for _, cfg := range data.AllDatasets() {
			w := NewWorkload(cfg, 1024*gpus, cost.PaperSystem(gpus))
			rs = append(rs, Speedup(hc.Iteration(w), hl.Iteration(w)))
		}
		gm := geomean(rs)
		if gm < 1.0 || gm > 4.0 {
			t.Errorf("%dGPU Hotline/Hotline-CPU = %.2f outside [1,4]", gpus, gm)
		}
		if gm < prev {
			t.Errorf("accelerator advantage should grow with GPUs: %.2f after %.2f", gm, prev)
		}
		prev = gm
	}
}

func TestSegregationTimeFastAndMonotone(t *testing.T) {
	eng, eal := accel.DefaultEngineConfig(), accel.DefaultEALConfig()
	t4k := segregationTime(eng, eal, 4096*26)
	t16k := segregationTime(eng, eal, 16384*26)
	if t16k <= t4k {
		t.Fatal("segregation time must grow with lookups")
	}
	// The accelerator must be orders of magnitude faster than the CPU's
	// ~60ms (paper Figure 7 vs accelerator pipeline).
	if t4k.Millis() > 1 {
		t.Fatalf("accelerator segregation of 4K batch = %v, want < 1ms", t4k)
	}
}

func TestReducerTime(t *testing.T) {
	r := accel.DefaultReducerConfig()
	t1 := reduceTime(r, 100, 64)
	t2 := reduceTime(r, 200, 64)
	if t2 <= t1 {
		t.Fatal("reduce time must grow with rows")
	}
}

// Figure 3's shape: the hybrid baseline spends most of its time on
// CPU-side embedding work for the embedding-dominated datasets.
func TestHybridBreakdownCPUDominated(t *testing.T) {
	for _, name := range []string{"Criteo Kaggle", "Criteo Terabyte"} {
		cfg, err := data.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorkload(cfg, 4096, cost.PaperSystem(4))
		st := NewIntelDLRM().Iteration(w)
		cpuSide := st.Phases[PhaseEmbFwd] + st.Phases[PhaseOpt] + st.Phases[PhaseComm]
		frac := float64(cpuSide) / float64(st.Total)
		if frac < 0.40 || frac > 0.85 {
			t.Errorf("%s: hybrid CPU-side fraction %.2f, paper shows 40-75%%", name, frac)
		}
	}
}

// Figure 4/22's driver: all-to-all must be a visible slice of GPU-only time
// and grow dramatically across nodes (Figure 5: >50% multi-node).
func TestAllToAllShare(t *testing.T) {
	cfg := data.CriteoTerabyte()
	w := NewWorkload(cfg, 4096, cost.PaperSystem(4))
	st := NewHugeCTR().Iteration(w)
	frac := float64(st.Phases[PhaseA2A]) / float64(st.Total)
	if frac < 0.03 || frac > 0.4 {
		t.Errorf("single-node a2a share %.2f, paper reports ~12%%", frac)
	}

	multi := NewWorkload(data.SynM1(), 4096*4, cost.PaperCluster(4))
	stM := NewHugeCTR().Iteration(multi)
	if stM.OOM {
		t.Fatal("SYN-M1 should fit 16 GPUs")
	}
	fracM := float64(stM.Phases[PhaseA2A]) / float64(stM.Total)
	if fracM < 0.4 {
		t.Errorf("multi-node a2a share %.2f, paper reports >50%%", fracM)
	}
	if fracM <= frac {
		t.Error("a2a share must grow across nodes")
	}
}

// Figure 30: SYN-M1 fits only at 4 nodes for HugeCTR; SYN-M2 exceeds even
// 4 nodes; Hotline runs both at any node count and wins at 4 nodes.
func TestMultiNodeOOMMatrix(t *testing.T) {
	hc := NewHugeCTR()
	hl := NewHotline()
	for _, tc := range []struct {
		cfg   data.Config
		nodes int
		oom   bool
	}{
		{data.SynM1(), 1, true},
		{data.SynM1(), 2, true},
		{data.SynM1(), 4, false},
		{data.SynM2(), 4, true},
	} {
		w := NewWorkload(tc.cfg, 4096*tc.nodes, cost.PaperCluster(tc.nodes))
		if got := hc.Iteration(w).OOM; got != tc.oom {
			t.Errorf("%s %d-node HugeCTR OOM=%v want %v", tc.cfg.Name, tc.nodes, got, tc.oom)
		}
		if hl.Iteration(w).OOM {
			t.Errorf("Hotline must never OOM (%s %d nodes)", tc.cfg.Name, tc.nodes)
		}
	}
	// At 4 nodes where both run, Hotline wins by eliminating all-to-all
	// (paper: 1.89x).
	w := NewWorkload(data.SynM1(), 4096*4, cost.PaperCluster(4))
	r := Speedup(hc.Iteration(w), hl.Iteration(w))
	if r < 1.3 || r > 3.5 {
		t.Errorf("4-node Hotline/HugeCTR on SYN-M1 = %.2f, paper reports 1.89", r)
	}
}

// Figure 26: Hotline's advantage over the hybrid baseline grows with batch.
func TestBatchSweepAdvantageGrows(t *testing.T) {
	cfg := data.CriteoKaggle()
	sys := cost.PaperSystem(4)
	prev := 0.0
	for _, b := range []int{1024, 4096, 16384} {
		w := NewWorkload(cfg, b, sys)
		r := Speedup(NewIntelDLRM().Iteration(w), NewHotline().Iteration(w))
		if r < prev*0.95 {
			t.Errorf("batch %d: speedup %.2f fell vs %.2f", b, r, prev)
		}
		prev = r
	}
}

// Hotline hides the gather under popular execution for realistic ratios
// (Figure 25's point): no stall at measured popularity, visible stall when
// popularity is artificially forced very low.
func TestGatherHiding(t *testing.T) {
	w := kaggle4GPU(t)
	st := NewHotline().Iteration(w)
	if st.Phases[PhaseGather] > st.Total/20 {
		t.Errorf("gather stall %v should be hidden at %.0f%% popularity",
			st.Phases[PhaseGather], w.PopularFrac*100)
	}
	// Force a 20:80 split with lots of cold traffic.
	w.PopularFrac = 0.2
	w.ColdLookupFrac = 0.4
	st2 := NewHotline().Iteration(w)
	if st2.Phases[PhaseGather] <= st.Phases[PhaseGather] {
		t.Error("forcing low popularity must increase the gather stall")
	}
}

// Hotline-CPU exposes a segregation stall that the accelerator variant
// does not have (Figures 7/23).
func TestSegregationStallOnlyOnCPU(t *testing.T) {
	w := kaggle4GPU(t)
	cpuSt := NewHotlineCPU().Iteration(w)
	if cpuSt.Phases[PhaseSeg] <= 0 {
		t.Error("CPU-based Hotline must expose a segregation stall at 4K batch")
	}
	hlSt := NewHotline().Iteration(w)
	if hlSt.Phases[PhaseSeg] != 0 {
		t.Error("accelerator Hotline must fully hide segregation")
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 7 {
		t.Fatalf("expected 7 pipelines, got %d", len(All()))
	}
	if _, err := ByName("Hotline"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown pipeline must error")
	}
	if Speedup(IterStats{OOM: true}, IterStats{Total: 1}) != 0 {
		t.Fatal("OOM speedup must be 0")
	}
}

func TestXDLWeakScalingBatch(t *testing.T) {
	// Weak scaling grows total batch with GPUs: iteration time of CPU-bound
	// pipelines must not shrink as GPUs grow.
	cfg := data.CriteoKaggle()
	t1 := NewXDL().Iteration(NewWorkload(cfg, 1024, cost.PaperSystem(1))).Total
	t4 := NewXDL().Iteration(NewWorkload(cfg, 4096, cost.PaperSystem(4))).Total
	if t4 < t1 {
		t.Errorf("XDL weak scaling: 4GPU iter %v < 1GPU iter %v", t4, t1)
	}
}

// BenchmarkPipelineIteration measures the full analytic timing model for
// every pipeline on the 4-GPU Kaggle workload.
func BenchmarkPipelineIteration(b *testing.B) {
	w := NewWorkload(data.CriteoKaggle(), 4096, cost.PaperSystem(4))
	pipes := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pipes {
			p.Iteration(w)
		}
	}
}
