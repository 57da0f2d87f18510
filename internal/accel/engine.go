package accel

import "hotline/internal/tensor"

// EngineConfig sizes the parallel lookup-engine array (paper §V-C,
// Table IV: 64 engines at 350 MHz, fed from a 512-entry request queue).
type EngineConfig struct {
	Engines   int
	QueueSize int
	FreqHz    float64
}

// DefaultEngineConfig is the paper's Table IV configuration.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{Engines: 64, QueueSize: 512, FreqHz: 350e6}
}

// ParallelRequestsPerIteration estimates how many queued EAL requests issue
// per iteration for a queue of m requests over banks banks (Figure 16's
// design-space exploration): the scheduler scans the queue and issues at
// most one request per bank per iteration, capped by the engine count.
// Requests target banks uniformly thanks to the Feistel randomizer; the
// estimate Monte-Carlo samples that process with a deterministic seed.
func ParallelRequestsPerIteration(queue, banks, engines int, trials int) float64 {
	if queue < 1 || banks < 1 {
		return 0
	}
	rng := tensor.NewRNG(uint64(queue)<<32 ^ uint64(banks)<<8 ^ 0xF16)
	var total float64
	for t := 0; t < trials; t++ {
		seen := make(map[int]struct{}, banks)
		for i := 0; i < queue; i++ {
			seen[rng.Intn(banks)] = struct{}{}
		}
		issued := len(seen)
		if issued > engines {
			issued = engines
		}
		total += float64(issued)
	}
	return total / float64(trials)
}

// ReducerConfig sizes the reducer ALU array (Table IV: 16 ALUs).
type ReducerConfig struct {
	ALUs   int
	FreqHz float64
}

// DefaultReducerConfig is the paper's Table IV configuration.
func DefaultReducerConfig() ReducerConfig { return ReducerConfig{ALUs: 16, FreqHz: 350e6} }

// InputEDRAMConfig models the 2.5 MB input staging buffer that holds the
// non-popular µ-batch (paper §V-A: up to 16K inputs).
type InputEDRAMConfig struct {
	SizeBytes int64
}

// DefaultInputEDRAM returns the Table IV 2.5 MB buffer.
func DefaultInputEDRAM() InputEDRAMConfig { return InputEDRAMConfig{SizeBytes: 2_500_000} }

// MaxInputs returns how many inputs fit given bytes per staged input
// (sparse indices + per-table offsets).
func (c InputEDRAMConfig) MaxInputs(bytesPerInput int64) int {
	if bytesPerInput <= 0 {
		return 0
	}
	return int(c.SizeBytes / bytesPerInput)
}
