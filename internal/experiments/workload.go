package experiments

import (
	"fmt"

	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/embedding"
	"hotline/internal/pipeline"
	"hotline/internal/report"
)

// Fig6AccessSkew reproduces Figure 6: the per-entry access skew of each
// dataset and the fraction of inputs that are popular under the hot budget.
func Fig6AccessSkew() *report.Table {
	t := &report.Table{Header: []string{
		"dataset", "distinct rows", "top access", "median access", "skew(p99/med)", "% popular inputs"}}
	for _, cfg := range data.AllDatasets() {
		probe := cfg
		probe.Samples = 4096
		gen := data.NewGenerator(probe)
		prof := data.ProfileEpoch(gen, 512)
		counts := prof.SortedCounts()
		med := counts[len(counts)/2]
		placement := embedding.PlacementFromCounts(
			prof.Counts(), probe.NumTables, probe.EmbedDim, data.ScaledHotBudget(probe))
		popFrac := data.PopularInputFraction(data.NewGenerator(probe), 2048, placement.IsHot)
		t.AddRow(cfg.Name,
			fmt.Sprint(prof.DistinctRows()), fmt.Sprint(counts[0]), fmt.Sprint(med),
			fmt.Sprintf("%.0fx", prof.SkewRatio()), fmt.Sprintf("%.0f%%", popFrac*100))
	}
	t.Notes = "paper: frequently-accessed entries see >100x more accesses; ~75% of inputs popular"
	return t
}

// Fig7CPUSegregation reproduces Figure 7: CPU-based mini-batch segregation
// time against GPU training time for 1K/2K/4K mini-batches on 1/2/4 GPUs.
func Fig7CPUSegregation() *report.Table {
	t := &report.Table{Header: []string{"dataset", "gpus", "batch", "CPU segregation", "GPU training", "ratio"}}
	for _, cfg := range data.AllDatasets() {
		for _, gpus := range []int{1, 2, 4} {
			batch := 1024 * gpus
			w := pipeline.NewWorkload(cfg, batch, cost.PaperSystem(gpus))
			seg := cost.CPUSegregationTime(w.Sys.CPU, w.TotalLookups(), w.Sys.CPU.Cores)
			// GPU training time for the mini-batch: the GPU-side phases of
			// the hybrid iteration.
			st := pipeline.NewIntelDLRM().Iteration(w)
			gpuTrain := st.Phases[pipeline.PhaseMLPFwd] + st.Phases[pipeline.PhaseBwd] +
				st.Phases[pipeline.PhaseAllReduce]
			t.AddRow(cfg.Name, fmt.Sprint(gpus), fmt.Sprint(batch),
				seg.String(), gpuTrain.String(),
				fmt.Sprintf("%.1fx", float64(seg)/float64(gpuTrain)))
		}
	}
	t.Notes = "paper: CPU segregation up to 2.5x the GPU mini-batch training time"
	return t
}

// Fig8CorePlateau reproduces Figure 8: segregation wall-clock for a 4K
// Criteo Terabyte mini-batch as CPU cores vary; it plateaus beyond ~24.
func Fig8CorePlateau() *report.Table {
	t := &report.Table{Header: []string{"cores", "segregation", "vs 1 core"}}
	cfg := data.CriteoTerabyte()
	w := pipeline.NewWorkload(cfg, 4096, cost.PaperSystem(4))
	base := cost.CPUSegregationTime(w.Sys.CPU, w.TotalLookups(), 1)
	for _, cores := range []int{1, 2, 4, 8, 16, 24, 32} {
		seg := cost.CPUSegregationTime(w.Sys.CPU, w.TotalLookups(), cores)
		t.AddRow(fmt.Sprint(cores), seg.String(), fmt.Sprintf("%.2fx", float64(base)/float64(seg)))
	}
	t.Notes = "paper: memory-bound — adding cores beyond 24 does not help"
	return t
}

// Fig9EvolvingSkew reproduces Figure 9: the overlap of the popular set with
// day 0 decays as the training data drifts across days (Terabyte table 20).
func Fig9EvolvingSkew() *report.Table {
	t := &report.Table{Header: []string{"day", "top-100 overlap with day 0"}}
	cfg := data.CriteoTerabyte()
	table := 20
	for day := 0; day <= 7; day++ {
		ov := data.DayOverlap(cfg, table, 0, day, 100)
		t.AddRow(fmt.Sprint(day), fmt.Sprintf("%.0f%%", ov*100))
	}
	t.Notes = "paper: popular embeddings shift within days; static offline profiling goes stale"
	return t
}

// Fig15SRRIPvsOracle reproduces Figure 15: the fraction of popular inputs
// captured by the SRRIP-based EAL vs an Oracle LFU of equal capacity.
func Fig15SRRIPvsOracle() *report.Table {
	t := &report.Table{Header: []string{"dataset", "Oracle LFU", "SRRIP EAL", "SRRIP/Oracle"}}
	for _, cfg := range data.AllDatasets() {
		probe := cfg
		probe.Samples = 2048
		// Scaled EAL: the datasets are ~1000x downscaled, so a few KB of
		// tracker SRAM corresponds to the paper's 4 MB.
		ealCfg := accel.EALConfig{SizeBytes: 16 << 10, Banks: 16, Ways: 8, Seed: 7}
		eal := accel.NewEAL(ealCfg)
		oracle := accel.NewOracleLFU(eal.Capacity())

		data.Replay(data.NewGenerator(probe), 4, 512, func(tbl int, ix int32) {
			eal.Touch(tbl, ix)
			oracle.Touch(tbl, ix)
		})
		popEAL := data.PopularInputFraction(data.NewGenerator(probe), 1024, eal.Contains)
		popOracle := data.PopularInputFraction(data.NewGenerator(probe), 1024, oracleSet(oracle))
		ratio := 0.0
		if popOracle > 0 {
			ratio = popEAL / popOracle
		}
		t.AddRow(cfg.Name, pct(popOracle, 1), pct(popEAL, 1), fmt.Sprintf("%.2f", ratio))
	}
	t.Notes = "paper: SRRIP tracks ~90% of the oracle's frequently-accessed set"
	return t
}

// Fig16QueueBanks reproduces Figure 16: parallel EAL requests per iteration
// across queue sizes and bank counts.
func Fig16QueueBanks() *report.Table {
	banks := []int{8, 16, 32, 64}
	header := []string{"queue"}
	for _, b := range banks {
		header = append(header, fmt.Sprintf("%d banks", b))
	}
	t := &report.Table{Header: header}
	for _, q := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		row := []string{fmt.Sprint(q)}
		for _, b := range banks {
			row = append(row, fmt.Sprintf("%.1f", accel.ParallelRequestsPerIteration(q, b, 64, 64)))
		}
		t.AddRow(row...)
	}
	t.Notes = "paper: a 512-entry queue over 64 banks sustains ~60 parallel requests"
	return t
}

// Fig27EALSize reproduces Figure 27: popular inputs captured as the EAL
// SRAM size varies (scaled: dataset rows are ~1000x the paper's, so KB here
// correspond to MB in the paper).
func Fig27EALSize() *report.Table {
	sizes := []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	header := []string{"dataset"}
	for _, s := range sizes {
		header = append(header, fmt.Sprintf("%dKB", s>>10))
	}
	t := &report.Table{Header: header}
	for _, cfg := range data.AllDatasets() {
		probe := cfg
		probe.Samples = 2048
		row := []string{cfg.Name}
		for _, size := range sizes {
			eal := accel.NewEAL(accel.EALConfig{SizeBytes: size, Banks: 8, Ways: 8, Seed: 7})
			row = append(row, pct(trainEALOnEpoch(probe, eal, 4, 512), 1))
		}
		t.AddRow(row...)
	}
	t.Notes = "paper: 4MB (scaled: 4KB) suffices; Taobao (least skewed) benefits from more"
	return t
}
