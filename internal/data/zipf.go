package data

import (
	"fmt"
	"math"
	"math/bits"

	"hotline/internal/tensor"
)

// Zipf samples popularity ranks in [0, n) with P(rank=r) ∝ 1/(r+1)^s.
//
// Sampling inverts a precomputed CDF, which supports any s ≥ 0 (including
// the s ≤ 1 regime where rejection samplers like math/rand's are
// unavailable) and is deterministic given the caller's RNG. A guide table
// makes the inversion O(1) per draw: with G the smallest power of two ≥ n,
// guide[j] is the smallest rank whose CDF reaches j/G, so a draw u starts at
// guide[int(u*G)] and steps forward to the smallest rank r with cdf[r] ≥ u —
// the rank a binary search over the CDF returns, for every u. (An alias
// table would be O(1) too but maps u to other ranks, changing the stream.)
type Zipf struct {
	N     int
	S     float64
	cdf   []float64
	guide []int32
}

// NewZipf builds a sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("data: Zipf n=%d", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("data: Zipf s=%g", s))
	}
	z := &Zipf{N: n, S: s, cdf: make([]float64, n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	inv := 1 / sum
	for r := range z.cdf {
		z.cdf[r] *= inv
	}
	z.cdf[n-1] = 1 // guard against rounding
	// A power-of-two G makes j/G and u*G exact, so the bucket of u is
	// exactly int(u*G) and guide[j] is never past u's rank.
	z.guide = make([]int32, 1<<bits.Len(uint(n-1)))
	r := 0
	for j := range z.guide {
		for z.cdf[r] < float64(j)/float64(len(z.guide)) {
			r++
		}
		z.guide[j] = int32(r)
	}
	return z
}

// Sample draws one rank (0 = most popular).
func (z *Zipf) Sample(rng *tensor.RNG) int { return z.rank(rng.Float64()) }

// rank inverts the CDF at u ∈ [0, 1): the smallest r with cdf[r] ≥ u.
func (z *Zipf) rank(u float64) int {
	r := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[r] < u {
		r++
	}
	return r
}

// ProbOfRank returns P(rank = r).
func (z *Zipf) ProbOfRank(r int) float64 {
	if r == 0 {
		return z.cdf[0]
	}
	return z.cdf[r] - z.cdf[r-1]
}

// MassOfTop returns the probability mass of the k most popular ranks,
// i.e. the fraction of accesses the top-k entries absorb.
func (z *Zipf) MassOfTop(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= z.N {
		return 1
	}
	return z.cdf[k-1]
}
