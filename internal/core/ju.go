package core

import (
	"fmt"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// JU is the uniformity-assumption estimator of §4.2: with N_H pairs sharing
// a bucket and assuming pair similarities uniform on [0,1], Equation (4)
// gives a closed-form estimate
//
//	Ĵ_U = ((k+1)·N_H − τ^k·M) / Σ_{i=0}^{k-1} τ^i.
//
// Equation (4) is derived under the idealized Definition 3, p(s) = s (exact
// for MinHash). Mode JUNumeric replaces s^k by the family's true collision
// curve p(s)^k and evaluates the conditional probabilities in Equations
// (2)–(3) by numeric integration — the ablation DESIGN.md calls out for
// sign-random-projection, whose p(s) = 1 − arccos(s)/π.
type JU struct {
	m, nh  int64 // M = C(n, 2) and N_H of the stratifying table (or merged view)
	k      int
	family lsh.Family
	mode   JUMode
}

// JUMode selects the closed-form or numeric-integration variant.
type JUMode int

// JU modes.
const (
	JUClosedForm JUMode = iota // Equation (4): assumes p(s) = s
	JUNumeric                  // integrates the family's p(s)^k
)

// NewMergedJU builds the uniformity estimator over a shard-snapshot vector;
// wrap one snapshot with lsh.SingleSnapshot. JU consumes only (M, N_H, k)
// of table 0 and the family's collision curve, and the merged N_H equals
// the union index's N_H exactly, so the sharded JU is equal — not just
// close — to the single-index JU over the same corpus.
func NewMergedJU(gs *lsh.GroupSnapshot, mode JUMode) (*JU, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: JU needs a group snapshot")
	}
	st, err := stratumOf(gs, 0)
	if err != nil {
		return nil, err
	}
	if mode != JUClosedForm && mode != JUNumeric {
		return nil, fmt.Errorf("core: unknown JU mode %d", mode)
	}
	return &JU{m: st.M(), nh: st.NH(), k: gs.K(), family: gs.Family(), mode: mode}, nil
}

// Name implements Estimator.
func (e *JU) Name() string {
	if e.mode == JUNumeric {
		return "JU(numeric)"
	}
	return "JU"
}

// Estimate implements Estimator. JU is deterministic; rng is unused.
func (e *JU) Estimate(tau float64, _ *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	m := float64(e.m)
	nh := float64(e.nh)
	k := e.k
	var est float64
	switch e.mode {
	case JUClosedForm:
		// Σ_{i=0}^{k-1} τ^i, computed stably.
		var geo float64
		pow := 1.0
		for i := 0; i < k; i++ {
			geo += pow
			pow *= tau
		}
		// pow is now τ^k.
		est = (float64(k+1)*nh - pow*m) / geo
	case JUNumeric:
		pht, phf := conditionalProbs(e.family, k, tau)
		if pht-phf <= 0 {
			return 0, nil
		}
		est = (nh - m*phf) / (pht - phf)
	}
	return clampEstimate(est, m), nil
}

// conditionalProbs evaluates Equations (2) and (3) for an arbitrary family:
// areas of f(s) = p(s)^k left and right of τ (Figure 1), then
// P(H|T) = area_right/(1−τ) and P(H|F) = area_left/τ.
func conditionalProbs(family lsh.Family, k int, tau float64) (pht, phf float64) {
	f := func(s float64) float64 { return math.Pow(family.CollisionProb(s), float64(k)) }
	left := simpson(f, 0, tau, 256)
	right := simpson(f, tau, 1, 256)
	if tau < 1 {
		pht = right / (1 - tau)
	} else {
		pht = f(1)
	}
	phf = left / tau
	return pht, phf
}

// simpson integrates f over [a, b] with n (even) panels.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a {
		return 0
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
