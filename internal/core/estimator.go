// Package core implements the vector-similarity-join size estimators of the
// paper: the random sampling baselines (§3.1), the uniformity-assumption
// estimator J_U and its sampled refinement LSH-S (§4), the stratified
// sampling algorithm LSH-SS with its dampened variant (§5, Algorithm 1), and
// the multi-table and non-self-join extensions (Appendix B.2).
//
// All estimators are deterministic given the *xrand.RNG they are handed, and
// none of them mutates the index or data it reads.
package core

import (
	"fmt"
	"math"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// SimFunc measures the similarity of two vectors; the VSJ problem uses
// cosine (vecmath.Cosine), the SSJ problem Jaccard (vecmath.Jaccard).
// It must be symmetric bit for bit: sim(u, v) and sim(v, u) return the same
// float64. LSH-SS's SampleH may score an unordered pair once and reuse the
// result whichever order a draw names it in, so an asymmetric function
// would make estimates depend on which path SampleH took.
type SimFunc func(u, v vecmath.Vector) float64

// Estimator estimates the self-join size J(τ) = |{(u,v): sim(u,v) ≥ τ}| of a
// fixed collection. Implementations draw all randomness from rng, so
// repeated calls with independent generators yield independent estimates.
type Estimator interface {
	// Name identifies the estimator in experiment output (e.g. "LSH-SS").
	Name() string
	// Estimate returns an estimate of J(τ). Estimates are always ≥ 0.
	Estimate(tau float64, rng *xrand.RNG) (float64, error)
}

// pairsOf returns C(n, 2) as float64.
func pairsOf(n int) float64 {
	return float64(n) * float64(n-1) / 2
}

// clampEstimate confines an estimate to the feasible range [0, M].
func clampEstimate(est, m float64) float64 {
	if math.IsNaN(est) || est < 0 {
		return 0
	}
	if est > m {
		return m
	}
	return est
}

// validateTau rejects thresholds outside (0, 1].
func validateTau(tau float64) error {
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		return fmt.Errorf("core: threshold must be in (0, 1], got %v", tau)
	}
	return nil
}
