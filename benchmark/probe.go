package main

import "time"

// The box this benchmark was sized on is a 2-vCPU VM whose host changes its
// speed under it: the fixed kernel below takes 1.7 ms when the host leaves the
// box alone, 1.85-2.0 ms for minutes at a time, and 2.5-2.7 ms in bursts of a
// few seconds up to a whole run. Every step and request
// slows or speeds by nearly the same factor (dense-local steps: 14 ms at
// 1.7, 15.3 ms at 1.85, 21 ms at 2.6), so the median of a raw 10 s phase reports
// which speed the run caught, not how fast the program is: ten raw runs of
// one commit spread (Q3-Q1)/median = 0.22-0.38 on step time.
//
// So every timed phase is cut into slices, the prober runs its kernel between
// slices, and each slice's times are scaled to the reference speed by
// probeRefNS / (mean of the two probes around the slice). Time metrics are
// thus in "ms at reference speed"; a change to the program moves them exactly
// as it moves raw time, because the kernel shares no code with the program.
// Counts, failures, the within-SLO share and the heap are never scaled.

const (
	slicesPerPhase = 32  // slices per timed phase
	checkSlices    = 4   // slices of the check run's steps
	probeDim       = 112 // three 49 KB matrices
	probeRowBits   = 17
	probeRows      = 1 << probeRowBits
	probeCols      = 64
	probeGathers   = 8192
	probeRefNS     = 1.7e6 // the kernel's time on the reference box when its host leaves it alone
)

// prober owns the calibration kernel and every probe time of the run.
type prober struct {
	a, b, c []float32 // probeDim x probeDim matrices
	table   []float32 // probeRows x probeCols, never written (see run)
	rows    []int32   // the rows one pass gathers, fixed
	ns      []float64
}

func newProber() *prober {
	p := &prober{
		a:     make([]float32, probeDim*probeDim),
		b:     make([]float32, probeDim*probeDim),
		c:     make([]float32, probeDim*probeDim),
		table: make([]float32, probeRows*probeCols),
		rows:  make([]int32, probeGathers),
	}
	for i := range p.a {
		p.a[i] = 0.5
		p.b[i] = 0.25
	}

	x := uint32(12345)
	for i := range p.rows {
		x = x*1664525 + 1013904223 // a fixed LCG walk over the table
		p.rows[i] = int32(x >> (32 - probeRowBits))
	}
	// The first pass pays for mapping the table's pages; it is not a sample.
	p.run()
	p.ns = p.ns[:0]
	return p
}

// run times one pass of the kernel: two naive matrix multiplies (compute,
// L2-resident) and a pooled gather of random rows spread over a 32 MB table
// (address translation: a TLB miss per row). The table is fresh from the
// allocator and never written, so every page of it is the kernel's zero page
// and the gather never waits for DRAM, whose latency would depend on where
// this process's pages happen to sit. The program under test shares no code
// with the kernel, so optimising the program never moves it.
func (p *prober) run() float64 {
	start := time.Now()
	n := probeDim
	for pass := 0; pass < 2; pass++ {
		clear(p.c)
		for i := 0; i < n; i++ {
			ci := p.c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := p.a[i*n+k]
				for j, bkj := range p.b[k*n : (k+1)*n] {
					ci[j] += aik * bkj
				}
			}
		}
	}
	var pooled [probeCols]float32
	for _, r := range p.rows {
		row := p.table[int(r)*probeCols : (int(r)+1)*probeCols]
		for k := range pooled {
			pooled[k] += row[k]
		}
	}
	p.a[0] = 0.5 + pooled[0]*0 // keeps the gather live
	d := float64(time.Since(start))
	p.ns = append(p.ns, d)
	return d
}

// heapBytes is what the prober itself keeps live, for live_heap_mb to leave
// out.
func (p *prober) heapBytes() int {
	return 4 * (len(p.a) + len(p.b) + len(p.c) + len(p.table) + len(p.rows))
}

// last returns the most recent probe time.
func (p *prober) last() float64 { return p.ns[len(p.ns)-1] }

// bracket holds the probe times before and after a slice.
type bracket [2]float64

// speed is how fast the box ran during a slice relative to the reference
// (below 1 when throttled): a duration times speed is its length at reference
// speed, a rate divided by speed the rate at reference speed.
func (b bracket) speed() float64 { return probeRefNS / ((b[0] + b[1]) / 2) }
