// Package sample provides the sampling primitives shared by the join-size
// estimators: uniform random pairs, rejection sampling into stratum L,
// Lipton-style adaptive sampling (the SampleL subroutine of Algorithm 1),
// and without-replacement subset selection.
package sample

import (
	"fmt"

	"lshjoin/internal/xrand"
)

// UniformPair returns a uniform random unordered pair of distinct indices
// from [0, n). It panics if n < 2.
func UniformPair(rng *xrand.RNG, n int) (i, j int) {
	if n < 2 {
		panic("sample: UniformPair needs n ≥ 2")
	}
	i = rng.Intn(n)
	j = rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// RejectPair returns a uniform random pair of distinct indices from [0, n)
// subject to accept(i, j) being true, by rejection. maxTries bounds the
// attempts; ok is false if no acceptable pair was found (e.g. the accepted
// stratum is empty or nearly so).
func RejectPair(rng *xrand.RNG, n int, accept func(i, j int) bool, maxTries int) (i, j int, ok bool) {
	for t := 0; t < maxTries; t++ {
		i, j = UniformPair(rng, n)
		if accept(i, j) {
			return i, j, true
		}
	}
	return 0, 0, false
}

// AdaptiveResult reports the outcome of an adaptive sampling run.
type AdaptiveResult struct {
	Hits     int  // number of samples satisfying the predicate (n_L)
	Taken    int  // samples actually drawn (i)
	Reliable bool // true iff the loop ended by reaching the answer-size threshold δ
}

// Adaptive runs Lipton et al.'s adaptive sampling loop: draw samples until
// either `hits` reaches delta (a reliable estimate can be scaled up) or
// maxSamples draws have been taken. draw returns whether the next sample
// satisfies the predicate, and false ok when the underlying sampler is
// exhausted (treated as an immediate stop).
//
// This is the core of SampleL in Algorithm 1 of the paper; the caller decides
// how to scale the result (full scale-up, safe lower bound, or a dampened
// factor).
func Adaptive(delta, maxSamples int, draw func() (hit, ok bool)) AdaptiveResult {
	var r AdaptiveResult
	for r.Hits < delta && r.Taken < maxSamples {
		hit, ok := draw()
		if !ok {
			break
		}
		if hit {
			r.Hits++
		}
		r.Taken++
	}
	r.Reliable = r.Hits >= delta
	return r
}

// WithoutReplacement returns m distinct indices drawn uniformly from [0, n)
// via a partial Fisher–Yates shuffle in O(m) extra space.
func WithoutReplacement(rng *xrand.RNG, n, m int) ([]int, error) {
	if m < 0 || m > n {
		return nil, fmt.Errorf("sample: need 0 ≤ m ≤ n, got m=%d n=%d", m, n)
	}
	// Sparse Fisher–Yates: only touched positions are stored.
	swapped := make(map[int]int, m)
	out := make([]int, m)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		vi, oki := swapped[i]
		if !oki {
			vi = i
		}
		vj, okj := swapped[j]
		if !okj {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
	}
	return out, nil
}
