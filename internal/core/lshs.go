package core

import (
	"fmt"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/sample"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// LSHS is the LSH-S estimator of §4.3: it removes the uniformity assumption
// of J_U by weighting the collision curve with the empirical similarity
// distribution of a random pair sample. With f(s) = p(s)^k:
//
//	P̂(H|T) = Σ_{(u,v)∈S_T} f(sim(u,v)) / |S_T|   (Equation 5)
//	P̂(H|F) = Σ_{(u,v)∈S_F} f(sim(u,v)) / |S_F|   (Equation 6)
//
// plugged into Equation (1). When the sample contains no true pair — the
// failure mode §6.2 reports at high thresholds — the estimator falls back to
// the analytic P(H|T) of the uniformity analysis, which is exactly why its
// high-threshold estimates are unreliable.
type LSHS struct {
	mPairs, nh int64 // M = C(n, 2) and N_H of table 0's stratum
	k          int
	family     lsh.Family
	data       []vecmath.Vector
	m          int
}

// NewMergedLSHS builds the sampled collision estimator over a
// shard-snapshot vector, with table 0's N_H (merged across shards) and the
// dense union corpus; wrap one snapshot with lsh.SingleSnapshot. m is the
// pair-sample size (defaults to n). Like all estimators, it binds to the
// capture at construction and is immune to concurrent inserts.
func NewMergedLSHS(gs *lsh.GroupSnapshot, m int) (*LSHS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: LSH-S needs a group snapshot")
	}
	st, err := stratumOf(gs, 0)
	if err != nil {
		return nil, err
	}
	n := gs.N()
	if n < 2 {
		return nil, fmt.Errorf("core: LSH-S needs at least 2 vectors, got %d", n)
	}
	if m <= 0 {
		m = n
	}
	return &LSHS{mPairs: st.M(), nh: st.NH(), k: gs.K(), family: gs.Family(), data: gs.Data(), m: m}, nil
}

// Name implements Estimator.
func (e *LSHS) Name() string { return "LSH-S" }

// Estimate implements Estimator.
func (e *LSHS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	k := float64(e.k)
	f := func(s float64) float64 {
		return math.Pow(e.family.CollisionProb(s), k)
	}
	var sumT, sumF float64
	var nT, nF int
	for s := 0; s < e.m; s++ {
		i, j := sample.UniformPair(rng, len(e.data))
		sim := e.family.Sim(e.data[i], e.data[j])
		if sim >= tau {
			sumT += f(sim)
			nT++
		} else {
			sumF += f(sim)
			nF++
		}
	}
	var pht float64
	if nT > 0 {
		pht = sumT / float64(nT)
	} else {
		// No true pair sampled: fall back to the LSH-function analysis.
		pht, _ = conditionalProbs(e.family, e.k, tau)
	}
	var phf float64
	if nF > 0 {
		phf = sumF / float64(nF)
	} else {
		_, phf = conditionalProbs(e.family, e.k, tau)
	}
	m := float64(e.mPairs)
	nh := float64(e.nh)
	if pht-phf <= 0 {
		return 0, nil
	}
	return clampEstimate((nh-m*phf)/(pht-phf), m), nil
}
