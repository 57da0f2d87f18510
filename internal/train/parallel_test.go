package train

import (
	"sync"
	"testing"

	"hotline/internal/data"
	"hotline/internal/model"
	"hotline/internal/par"
)

// trainSteps runs n Hotline steps from a fixed seed under the given worker
// count and returns the trainer plus the per-step losses.
func trainSteps(workers, n int) (*HotlineTrainer, []float64) {
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	cfg := tinyCfg()
	tr := NewHotline(model.New(cfg, 21), 0.1)
	gen := data.NewGenerator(cfg)
	losses := make([]float64, n)
	for i := range losses {
		losses[i] = tr.Step(gen.NextBatch(96))
	}
	return tr, losses
}

// The trainer's concurrent µ-batch execution must be bit-deterministic: the
// popular pass runs on the primary model, the non-popular pass on a
// weight-sharing shadow, and gradients reduce in fixed order — so any worker
// count produces exactly the same parameters and losses.
func TestHotlineStepBitIdenticalAcrossWorkers(t *testing.T) {
	serial, serialLoss := trainSteps(1, 12)
	for _, workers := range []int{2, 8} {
		parallel, parallelLoss := trainSteps(workers, 12)
		for i := range serialLoss {
			if serialLoss[i] != parallelLoss[i] {
				t.Fatalf("workers=%d: step %d loss %v != serial %v",
					workers, i, parallelLoss[i], serialLoss[i])
			}
		}
		if !model.DenseStateEqual(serial.M, parallel.M) {
			t.Fatalf("workers=%d: dense parameters differ from serial", workers)
		}
		if !model.SparseStateEqual(serial.M, parallel.M) {
			t.Fatalf("workers=%d: embedding tables differ from serial", workers)
		}
	}
}

// The baseline executor's batch-sharded kernels carry the same guarantee.
func TestBaselineStepBitIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) *model.Model {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		cfg := tinyCfg()
		tr := NewBaseline(model.New(cfg, 33), 0.1)
		gen := data.NewGenerator(cfg)
		for i := 0; i < 10; i++ {
			tr.Step(gen.NextBatch(128))
		}
		return tr.M
	}
	serial := run(1)
	parallel := run(8)
	if !model.DenseStateEqual(serial, parallel) || !model.SparseStateEqual(serial, parallel) {
		t.Fatal("baseline training is not bit-identical across worker counts")
	}
}

// Eq. 5 parity must survive the concurrent µ-batch execution: the Hotline
// executor still tracks the baseline within float-reordering tolerance.
func TestParityHoldsUnderParallelExecution(t *testing.T) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	rep := Parity(tinyCfg(), 9, RunConfig{BatchSize: 64, Iters: 20, EvalSize: 512})
	if rep.MaxStateDiff > 1e-3 {
		t.Fatalf("parallel executors diverged: max diff %g", rep.MaxStateDiff)
	}
}

// Distinct trainers over distinct models may train concurrently (the race
// harness for parallel Model.TrainStep).
func TestConcurrentTrainersRaceFree(t *testing.T) {
	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	cfg := tinyCfg()
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var tr Trainer
			if k%2 == 0 {
				tr = NewBaseline(model.New(cfg, Seed(5, k)), 0.1)
			} else {
				tr = NewHotline(model.New(cfg, Seed(5, k)), 0.1)
			}
			gen := data.NewGenerator(cfg)
			for i := 0; i < 4; i++ {
				tr.StepLookahead(gen.NextBatch(64), nil)
			}
		}(k)
	}
	wg.Wait()
}
