package pipeline

import (
	"hotline/internal/accel"
	"hotline/internal/cost"
	"hotline/internal/sim"
)

// Hotline models the paper's system (Figure 12): the accelerator segregates
// each mini-batch into a popular µ-batch (dispatched straight to the GPUs,
// all embeddings in HBM) and a non-popular µ-batch whose CPU-resident
// working parameters the accelerator gathers over DMA while the popular
// µ-batch executes. Embedding lookups and updates all happen in HBM; cold
// rows are updated in CPU DRAM by DMA writes off the critical path.
type Hotline struct {
	Accel accel.Config
	// DedupFrac models intra-batch reuse of cold rows (gathered once).
	DedupFrac float64
	// NoOverlap serialises the gather after the popular µ-batch instead of
	// pipelining them — the scheduling ablation (what Hotline's pipeline
	// buys over a ScratchPipe-style serial gather).
	NoOverlap bool
}

// NewHotline returns the accelerator-pipelined Hotline system.
func NewHotline() *Hotline {
	return &Hotline{Accel: accel.DefaultConfig(), DedupFrac: 0.8}
}

// NewHotlineNoOverlap returns the ablation variant that does not hide the
// non-popular gather under popular execution.
func NewHotlineNoOverlap() *Hotline {
	h := NewHotline()
	h.NoOverlap = true
	return h
}

// Name implements Pipeline.
func (h *Hotline) Name() string {
	if h.NoOverlap {
		return "Hotline (no overlap)"
	}
	return "Hotline"
}

// Iteration times one steady-state mini-batch with the accelerator overlap.
func (h *Hotline) Iteration(w Workload) IterStats {
	sys := w.Sys
	nGPU := sys.TotalGPUs()
	ph := Breakdown{}

	// Segregation of the *next* mini-batch runs on the accelerator during
	// the current iteration; at microsecond scale it is fully hidden, so
	// only the learning-phase sampling (5% of batches re-profiled) shows
	// up, amortised, as overhead.
	segTime := segregationTime(h.Accel.Engines, h.Accel.EAL, w.TotalLookups())
	learnAmortised := scaleDur(segTime, h.Accel.SampleRate)

	// --- popular µ-batch on GPUs, gather on accelerator, in parallel ---
	gpu := sim.NewResource("gpu")
	acc := sim.NewResource("accelerator")

	popShare := int(float64(w.PerGPUBatch()) * w.PopularFrac)
	if popShare < 1 {
		popShare = 1
	}
	popLookups := scaleI64(w.TotalLookups(), w.PopularFrac) / int64(nGPU)
	popEmb := cost.GPUEmbLookupTime(sys.GPU, popLookups, w.RowBytes())
	popDense := w.gpuDenseFwdTime(popShare, 1)
	_, popStart := gpu.Schedule(0, 0)
	_, popEnd := gpu.Schedule(popStart, popEmb+popDense)

	// Accelerator: gather cold rows from CPU DRAM, pool them (reducer),
	// stream to GPUs. DMAGatherTime already pipelines DRAM with PCIe. In
	// the NoOverlap ablation the gather only starts once the popular
	// µ-batch finishes. A sharded workload replaces the analytic
	// cold × dedup estimate with the gather fraction measured against real
	// device-cache state.
	coldFrac := w.ColdLookupFrac * h.DedupFrac
	if w.Shard != nil {
		coldFrac = w.Shard.GatherFrac
	}
	coldRows := scaleI64(w.TotalLookups(), coldFrac)
	gather := cost.DMAGatherTime(sys, coldRows, w.RowBytes())
	reducer := reduceTime(h.Accel.Reducer, coldRows, w.Cfg.EmbedDim)
	gatherStart := sim.Time(0)
	if h.NoOverlap {
		gatherStart = popEnd
	}
	_, gatherEnd := acc.Schedule(gatherStart, gather+reducer)
	if !h.NoOverlap && w.Shard != nil && w.Shard.OverlapMeasured {
		// A functional overlap run measured how much of the gather actually
		// stayed on the critical path; price that exposed share after the
		// popular µ-batch instead of the analytic overlap schedule.
		gatherEnd = popEnd + scaleDur(gather+reducer, w.Shard.ExposedFrac)
	}

	// --- non-popular µ-batch starts when both GPU and parameters ready ---
	nonShare := w.PerGPUBatch() - popShare
	var nonEmb, nonDense sim.Duration
	nonStart := popEnd
	if nonShare > 0 {
		nonLookups := w.TotalLookups()/int64(nGPU) - popLookups
		nonEmb = cost.GPUEmbLookupTime(sys.GPU, nonLookups, w.RowBytes())
		// The non-popular µ-batch's launches are issued while the popular
		// µ-batch still executes, hiding most of their dispatch cost.
		nonDense = w.gpuDenseFwdTime(nonShare, 0.25)
		nonStart = sim.MaxTime(popEnd, gatherEnd)
	}
	_, fwdEnd := gpu.Schedule(nonStart, nonEmb+nonDense)

	ph[PhaseEmbFwd] = popEmb + nonEmb
	ph[PhaseMLPFwd] = popDense + nonDense
	stall := nonStart - popEnd
	if stall > 0 {
		ph[PhaseGather] = stall
	}

	// --- backward over the full mini-batch ---
	_, bwd := w.gpuDenseTime(w.PerGPUBatch())
	bwdEmb := cost.GPUEmbLookupTime(sys.GPU, w.TotalLookups()/int64(nGPU), w.RowBytes())
	_, bwdEnd := gpu.Schedule(fwdEnd, bwd+bwdEmb)
	ph[PhaseBwd] = bwdEnd - fwdEnd

	// --- all-reduce: dense grads + touched hot embedding grads ---
	gradBytes := w.DenseParamBytes() + w.PooledEmbBytes(w.PerGPUBatch())
	ph[PhaseAllReduce] = cost.HierarchicalAllReduceTime(sys, gradBytes)

	// --- optimizer: hot rows in HBM; cold rows DMA-written to CPU DRAM
	// concurrently with the next iteration (off the critical path) ---
	touchedHot := dedupRows(w.TotalLookups()/int64(nGPU) - coldRows/int64(nGPU))
	if touchedHot < 0 {
		touchedHot = 0
	}
	ph[PhaseOpt] = cost.GPUEmbUpdateTime(sys.GPU, touchedHot, w.RowBytes()) +
		cost.GPUMLPTime(sys.GPU, w.DenseParamBytes()/2, 2)

	ph[PhaseOverhead] = cost.PerIterHostOverhead + learnAmortised

	return IterStats{Total: ph.Total(), Phases: ph}
}

// segregationTime prices classifying a mini-batch of totalLookups lookups
// (batch × average lookups per input) on the accelerator and assembling the
// two µ-batches: one cycle per issued request at the sustained issue rate —
// the requests that go out per scheduler iteration, bounded by the engine
// count and the EAL's bank parallelism — plus a fixed ramp of ~200 cycles
// per mini-batch. The clock period is truncated to whole nanoseconds (2 ns
// at 350 MHz), the period every fig/tab table is priced at.
func segregationTime(eng accel.EngineConfig, eal accel.EALConfig, totalLookups int64) sim.Duration {
	par := accel.ParallelRequestsPerIteration(eng.QueueSize, eal.Banks, eng.Engines, 64)
	if par < 1 {
		par = 1
	}
	cycles := float64(totalLookups)/par + 200
	return sim.Duration(cycles * float64(sim.Duration(1e9/eng.FreqHz)))
}

// reduceTime prices pooling nRows embedding rows of dim floats into bag sums
// on the reducer: one float add per element, ALUs elements per cycle.
func reduceTime(r accel.ReducerConfig, nRows int64, dim int) sim.Duration {
	cycles := float64(nRows*int64(dim)) / float64(r.ALUs)
	return sim.Duration(cycles * 1e9 / r.FreqHz)
}

// scaleI64 multiplies an int64 by a float factor.
func scaleI64(v int64, f float64) int64 { return int64(float64(v) * f) }

// HotlineCPU is the §VII-D ablation: the same popular/non-popular split but
// with segregation and parameter gathering done by CPU multi-processing
// instead of the accelerator. The CPU stage cannot hide behind the popular
// µ-batch, so the GPUs stall.
type HotlineCPU struct {
	Cores int
	// DedupFrac mirrors Hotline's gather dedup.
	DedupFrac float64
}

// NewHotlineCPU returns the CPU-based variant using all host cores.
func NewHotlineCPU() *HotlineCPU {
	return &HotlineCPU{Cores: 0, DedupFrac: 0.8}
}

// Name implements Pipeline.
func (h *HotlineCPU) Name() string { return "Hotline-CPU" }

// Iteration times one steady-state mini-batch: a two-stage software
// pipeline where the CPU stage (segregate + gather next batch) and the GPU
// stage (train current batch) run concurrently; the iteration time is the
// slower stage.
func (h *HotlineCPU) Iteration(w Workload) IterStats {
	sys := w.Sys
	nGPU := sys.TotalGPUs()
	cores := h.Cores
	if cores <= 0 {
		cores = sys.CPU.Cores
	}
	ph := Breakdown{}

	// CPU stage: segregation plus cold-row gather and PCIe push (no DMA
	// pipelining: CPU copies to pinned memory, then transfers).
	segTime := cost.CPUSegregationTime(sys.CPU, w.TotalLookups(), cores)
	coldRows := scaleI64(w.TotalLookups(), w.ColdLookupFrac*h.DedupFrac)
	gather := cost.CPUEmbLookupTime(sys.CPU, coldRows, w.RowBytes()) +
		sys.PCIe.Transfer(coldRows*w.RowBytes())
	cpuStage := segTime + gather

	// GPU stage: identical compute to Hotline's GPU work.
	perGPULookups := w.TotalLookups() / int64(nGPU)
	embFwd := cost.GPUEmbLookupTime(sys.GPU, perGPULookups, w.RowBytes())
	fwd, bwd := w.gpuDenseTime(w.PerGPUBatch())
	ar := cost.HierarchicalAllReduceTime(sys, w.DenseParamBytes()+w.PooledEmbBytes(w.PerGPUBatch()))
	opt := cost.GPUEmbUpdateTime(sys.GPU, dedupRows(perGPULookups), w.RowBytes()) +
		cost.GPUMLPTime(sys.GPU, w.DenseParamBytes()/2, 2)
	gpuStage := embFwd + fwd + bwd + ar + opt

	ph[PhaseEmbFwd] = embFwd
	ph[PhaseMLPFwd] = fwd
	ph[PhaseBwd] = bwd
	ph[PhaseAllReduce] = ar
	ph[PhaseOpt] = opt
	if cpuStage > gpuStage {
		// GPUs sit idle waiting for the CPU stage (paper: >50% idle).
		ph[PhaseSeg] = cpuStage - gpuStage
	}
	ph[PhaseOverhead] = cost.PerIterHostOverhead

	return IterStats{Total: ph.Total(), Phases: ph}
}
