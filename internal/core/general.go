package core

import (
	"fmt"
	"math"

	"lshjoin/internal/sample"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// GeneralRS is uniform pair sampling for the general (non-self) VSJ problem
// of App. B.2.2: estimate |{(u,v) : u ∈ U, v ∈ V, sim(u,v) ≥ τ}| from m
// uniform cross pairs.
type GeneralRS struct {
	left, right []vecmath.Vector
	sim         SimFunc
	m           int
}

// NewGeneralRS builds the estimator; m defaults to 1.5·(|U|+|V|)/2.
func NewGeneralRS(left, right []vecmath.Vector, sim SimFunc, m int) (*GeneralRS, error) {
	if len(left) == 0 || len(right) == 0 {
		return nil, fmt.Errorf("core: general RS needs non-empty collections")
	}
	if sim == nil {
		sim = vecmath.Cosine
	}
	if m <= 0 {
		m = 3 * (len(left) + len(right)) / 4
	}
	return &GeneralRS{left: left, right: right, sim: sim, m: m}, nil
}

// Name implements Estimator.
func (e *GeneralRS) Name() string { return "RS(general)" }

// Estimate implements Estimator.
func (e *GeneralRS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	hits := 0
	for s := 0; s < e.m; s++ {
		u := rng.Intn(len(e.left))
		v := rng.Intn(len(e.right))
		if e.sim(e.left[u], e.right[v]) >= tau {
			hits++
		}
	}
	m := float64(len(e.left)) * float64(len(e.right))
	return clampEstimate(float64(hits)*m/float64(e.m), m), nil
}

// BipartiteStratum abstracts the cross-pair space partition the general
// estimator samples over: stratum H (cross pairs whose buckets share a g
// value, weight-sampled) versus everything else. One lsh.Bipartite matching
// implements it directly; a sharded group pair's merged view (see
// sharded.go) implements it by combining per-shard-pair matchings, which is
// what lets one App. B.2.2 implementation serve both single-snapshot and
// shard-group cross joins. The view is immutable, so callers serving
// repeated estimates over an unchanged capture should build it once (see
// NewBipartiteStratum) and construct estimators over it per call.
type BipartiteStratum interface {
	// M is the total number of cross pairs |U|·|V|.
	M() int64
	// NH is the number of cross pairs whose buckets share a g value.
	NH() int64
	// NL is M − N_H.
	NL() int64
	// SamplePair draws a uniform random stratum-H cross pair; ok is false
	// when N_H = 0.
	SamplePair(rng *xrand.RNG) (u, v int, ok bool)
	// SameBucket reports whether u ∈ U and v ∈ V have equal g values.
	SameBucket(u, v int) bool
	// Sim returns the family similarity between u ∈ U and v ∈ V.
	Sim(u, v int) float64
	// LeftN and RightN return the collection sizes |U| and |V|.
	LeftN() int
	RightN() int
}

// GeneralLSHSS is LSH-SS for non-self joins (App. B.2.2): stratum H is the
// set of cross pairs with equal g values (sampled through a bipartite bucket
// matching with weight b_j·c_i), stratum L is everything else (rejection
// sampling). Pairs are scored by the stratum's own Sim, the family
// similarity.
type GeneralLSHSS struct {
	params
	bp BipartiteStratum
}

// NewGeneralLSHSS builds the estimator over a bipartite stratum view: one
// lsh.Bipartite matching, or NewBipartiteStratum's view of a captured group
// pair, which callers serving repeated estimates over an unchanged capture
// build once. Defaults mirror the self-join case with n = (|U|+|V|)/2:
// m_H = m_L = n, δ = ⌈log₂(n+1)⌉.
func NewGeneralLSHSS(bp BipartiteStratum, opts ...LSHSSOption) (*GeneralLSHSS, error) {
	if bp == nil {
		return nil, fmt.Errorf("core: general LSH-SS needs a bipartite stratum")
	}
	n := max((bp.LeftN()+bp.RightN())/2, 1)
	p, err := resolveParams(n, int(math.Ceil(math.Log2(float64(n+1)))), opts)
	if err != nil {
		return nil, err
	}
	return &GeneralLSHSS{params: p, bp: bp}, nil
}

// Name implements Estimator.
func (e *GeneralLSHSS) Name() string { return "LSH-SS(general)" }

// Estimate implements Estimator.
func (e *GeneralLSHSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	// SampleH over matched buckets.
	var jh float64
	if nh := e.bp.NH(); nh > 0 {
		hits := 0
		for s := 0; s < e.mH; s++ {
			u, v, ok := e.bp.SamplePair(rng)
			if !ok {
				break
			}
			if e.bp.Sim(u, v) >= tau {
				hits++
			}
		}
		jh = float64(hits) * float64(nh) / float64(e.mH)
	}
	// SampleL via rejection on g(u) = g(v).
	var jl float64
	if nl := e.bp.NL(); nl > 0 {
		res := sample.Adaptive(e.delta, e.mL, func() (bool, bool) {
			u, v, ok := e.rejectL(rng)
			if !ok {
				return false, false
			}
			return e.bp.Sim(u, v) >= tau, true
		})
		jl = e.scaleL(res, float64(nl))
	}
	return clampEstimate(jh+jl, float64(e.bp.M())), nil
}

// rejectL draws a uniform stratum-L cross pair by rejection on
// g(u) = g(v); ok is false when maxReject draws all landed in stratum H.
func (e *GeneralLSHSS) rejectL(rng *xrand.RNG) (u, v int, ok bool) {
	for t := 0; t < maxReject; t++ {
		u = rng.Intn(e.bp.LeftN())
		v = rng.Intn(e.bp.RightN())
		if !e.bp.SameBucket(u, v) {
			return u, v, true
		}
	}
	return 0, 0, false
}

// EstimateCurve estimates the general selectivity curve J(τ) for a grid of
// thresholds from a single sampling pass — the cross-join analogue of
// LSHSS.EstimateCurve, for an optimizer costing one bipartite similarity
// predicate at many candidate thresholds.
func (e *GeneralLSHSS) EstimateCurve(taus []float64, rng *xrand.RNG) ([]float64, error) {
	return e.curve(taus, e.bp.NH(), e.bp.NL(), e.bp.M(),
		func() (int, int, bool) { return e.bp.SamplePair(rng) },
		func() (int, int, bool) { return e.rejectL(rng) },
		e.bp.Sim)
}

// ExactGeneralJoin counts the true cross-join size by brute force; it is the
// test oracle for the general estimators (O(|U|·|V|)).
func ExactGeneralJoin(left, right []vecmath.Vector, sim SimFunc, tau float64) int64 {
	if sim == nil {
		sim = vecmath.Cosine
	}
	var c int64
	for _, u := range left {
		for _, v := range right {
			if sim(u, v) >= tau {
				c++
			}
		}
	}
	return c
}
