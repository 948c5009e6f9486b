package core

import (
	"fmt"

	"lshjoin/internal/lsh"
	"lshjoin/internal/sample"
	"lshjoin/internal/stats"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// MedianSS is the median estimator of App. B.2.1: LSH-SS applied
// independently to each of the ℓ tables of an index, returning the median of
// the per-table estimates. By the standard Chernoff argument, the median is
// within the same error factor as a single estimate with failure probability
// at most 2^(−ℓ/2).
type MedianSS struct {
	subs []*LSHSS
}

// NewMergedMedianSS builds the median estimator over a shard-snapshot
// vector: one LSH-SS per table, all with the same options and bound to the
// same capture; wrap one snapshot with lsh.SingleSnapshot.
func NewMergedMedianSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*MedianSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: median estimator needs a group snapshot")
	}
	subs := make([]*LSHSS, 0, gs.L())
	for t := 0; t < gs.L(); t++ {
		s, err := NewMergedLSHSS(gs, sim, append(append([]LSHSSOption(nil), opts...), WithTable(t))...)
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	return &MedianSS{subs: subs}, nil
}

// Name implements Estimator.
func (e *MedianSS) Name() string { return "LSH-SS(median)" }

// Estimate implements Estimator. The ℓ per-table estimates are independent,
// so each runs on its own split RNG stream, fanned across cores; collecting
// them in table order keeps the median deterministic for a given rng state
// regardless of GOMAXPROCS.
func (e *MedianSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	ests := make([]float64, len(e.subs))
	errs := make([]error, len(e.subs))
	rngs := rng.SplitN(len(e.subs))
	runShards(len(e.subs), func(t int) {
		ests[t], errs[t] = e.subs[t].Estimate(tau, rngs[t])
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return stats.Median(ests), nil
}

// VirtualSS is the virtual-bucket estimator of App. B.2.1: a pair belongs to
// stratum H if the two vectors share a bucket in ANY of the ℓ tables, which
// relaxes an overly selective g (large k).
//
// The appendix leaves open how to obtain N_H of the union (enumerating it is
// infeasible, and its suggested rejection sampling from V×V has acceptance
// probability N_H/M ≈ 0). We instead sample stratum H by importance
// sampling from the per-table mixture — draw table t with probability
// N_H,t/Σ N_H,t, draw a co-bucketed pair there, and weight by the reciprocal
// of the pair's bucket multiplicity — which gives unbiased estimates of both
// |S_H^∪| and J_H. DESIGN.md records this as a documented extension.
type VirtualSS struct {
	params
	gs     *lsh.GroupSnapshot
	data   []vecmath.Vector
	strata []stratum // per-table stratum H, as stratumOf builds it
	sim    SimFunc

	mixture []float64 // per-table N_H weights
	totalNH float64   // Σ_t N_H,t
}

// NewMergedVirtualSS builds the virtual-bucket estimator over a
// shard-snapshot vector; wrap one snapshot with lsh.SingleSnapshot. The
// per-table mixture weights are the N_H,t of stratumOf's per-table views,
// the importance draws come from their samplers, and bucket multiplicity is
// evaluated across shards. The options WithSampleSizes, WithDelta, WithDamp
// and WithAlwaysScale are honored.
func NewMergedVirtualSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*VirtualSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: virtual-bucket estimator needs a group snapshot")
	}
	p, err := selfParams(gs.N(), opts)
	if err != nil {
		return nil, err
	}
	// The virtual-bucket stratum spans all tables, so WithTable is
	// meaningless here — but an out-of-range index is still a caller
	// configuration error worth failing fast on.
	if p.table < 0 || p.table >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", p.table, gs.L())
	}
	if sim == nil {
		sim = vecmath.Cosine
	}
	e := &VirtualSS{params: p, gs: gs, data: gs.Data(), sim: sim, mixture: make([]float64, gs.L())}
	for t := range e.mixture {
		st, err := stratumOf(gs, t)
		if err != nil {
			return nil, err
		}
		e.strata = append(e.strata, st)
		e.mixture[t] = float64(st.NH())
		e.totalNH += e.mixture[t]
	}
	return e, nil
}

// Name implements Estimator.
func (e *VirtualSS) Name() string { return "LSH-SS(virtual)" }

// Estimate implements Estimator.
func (e *VirtualSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	jh := e.sampleH(tau, rng)
	jl := e.sampleL(tau, rng)
	return clampEstimate(jh+jl, pairsOf(len(e.data))), nil
}

// sampleH draws from the per-table mixture with multiplicity correction:
// for pair (u,v) drawn from table t, P(draw) = mult(u,v)/Σ N_H,t, so the
// weight Σ N_H,t / mult is an unbiased Horvitz–Thompson factor for sums over
// the union stratum.
func (e *VirtualSS) sampleH(tau float64, rng *xrand.RNG) float64 {
	if e.totalNH == 0 {
		return 0
	}
	var sum float64 // Σ [sim ≥ τ]/mult over draws
	for s := 0; s < e.mH; s++ {
		t := e.pickTable(rng)
		i, j, ok := e.strata[t].SamplePair(rng)
		if !ok {
			continue
		}
		if e.sim(e.data[i], e.data[j]) >= tau {
			sum += 1 / float64(e.gs.BucketMultiplicity(i, j))
		}
	}
	return sum * e.totalNH / float64(e.mH)
}

// NHVirtual estimates |S_H^∪| with m mixture draws (exported for tests and
// diagnostics; same Horvitz–Thompson construction as sampleH).
func (e *VirtualSS) NHVirtual(m int, rng *xrand.RNG) float64 {
	if e.totalNH == 0 || m <= 0 {
		return 0
	}
	var sum float64
	for s := 0; s < m; s++ {
		t := e.pickTable(rng)
		i, j, ok := e.strata[t].SamplePair(rng)
		if !ok {
			continue
		}
		sum += 1 / float64(e.gs.BucketMultiplicity(i, j))
	}
	return sum * e.totalNH / float64(m)
}

func (e *VirtualSS) pickTable(rng *xrand.RNG) int {
	x := rng.Float64() * e.totalNH
	var acc float64
	for t, w := range e.mixture {
		acc += w
		if x < acc {
			return t
		}
	}
	return len(e.mixture) - 1
}

// sampleL mirrors LSH-SS's SampleL with the virtual-bucket membership test
// and N_L approximated by M − N̂_H (the union N_H is itself estimated; the
// approximation error is second-order because N_H ≪ M in any useful index).
func (e *VirtualSS) sampleL(tau float64, rng *xrand.RNG) float64 {
	n := len(e.data)
	m := pairsOf(n)
	nhHat := e.NHVirtual(min(e.mH, 2048), rng)
	nl := m - nhHat
	if nl <= 0 {
		return 0
	}
	notSame := func(i, j int) bool { return !e.gs.SameAnyBucket(i, j) }
	res := sample.Adaptive(e.delta, e.mL, func() (bool, bool) {
		i, j, ok := sample.RejectPair(rng, n, notSame, maxReject)
		if !ok {
			return false, false
		}
		return e.sim(e.data[i], e.data[j]) >= tau, true
	})
	return e.scaleL(res, nl)
}
