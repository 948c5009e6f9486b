package core

import (
	"fmt"
	"sort"

	"lshjoin/internal/sample"
	"lshjoin/internal/xrand"
)

// EstimateCurve estimates the whole selectivity curve J(τ) for a grid of
// thresholds from a single sampling pass — the query-optimizer use case
// where one similarity predicate is costed at many candidate thresholds.
// See params.curve for how the pass becomes Ĵ(τ).
func (e *LSHSS) EstimateCurve(taus []float64, rng *xrand.RNG) ([]float64, error) {
	notSame := func(i, j int) bool { return !e.strat.SameBucket(i, j) }
	return e.curve(taus, e.strat.NH(), e.strat.NL(), e.strat.M(),
		func() (int, int, bool) { return e.strat.SamplePair(rng) },
		func() (int, int, bool) { return sample.RejectPair(rng, len(e.data), notSame, maxReject) },
		func(i, j int) float64 { return e.sim(e.data[i], e.data[j]) })
}

// curve runs EstimateCurve's one sampling pass and turns it into Ĵ(τ) per
// threshold. drawH and drawL draw the next stratum-H and stratum-L pair, or
// report the sampler exhausted; sim scores a pair.
//
// SampleH draws m_H stratum-H pairs once and records their similarities;
// Ĵ_H(τ) is the recorded count ≥ τ scaled by N_H/m_H. SampleL draws one
// stream of up to m_L stratum-L pairs and replays Algorithm 1's adaptive
// stopping rule per threshold: if the δ-th success at level τ occurred at
// draw i_τ, the adaptive estimator would have stopped there, giving
// Ĵ_L(τ) = δ·N_L/i_τ; thresholds that never reach δ successes fall back to
// the safe lower bound (or the scale-up the estimator is configured with).
//
// The result is aligned with taus and is non-increasing after sorting taus
// ascending, matching the monotonicity of the true curve.
func (p *params) curve(taus []float64, nh, nl, m int64, drawH, drawL func() (i, j int, ok bool), sim func(i, j int) float64) ([]float64, error) {
	if len(taus) == 0 {
		return nil, fmt.Errorf("core: empty threshold grid")
	}
	for _, tau := range taus {
		if err := validateTau(tau); err != nil {
			return nil, err
		}
	}
	record := func(n int64, budget int, draw func() (i, j int, ok bool)) []float64 {
		sims := make([]float64, 0, budget)
		for n > 0 && len(sims) < budget {
			i, j, ok := draw()
			if !ok {
				break
			}
			sims = append(sims, sim(i, j))
		}
		return sims
	}
	simsH := record(nh, p.mH, drawH)
	simsL := record(nl, p.mL, drawL)
	sort.Float64s(simsH)

	out := make([]float64, len(taus))
	for x, tau := range taus {
		var jh float64
		if len(simsH) > 0 {
			hits := len(simsH) - sort.SearchFloat64s(simsH, tau)
			jh = float64(hits) * float64(nh) / float64(p.mH)
		}
		var jl float64
		if nl > 0 {
			// Replay the adaptive loop: stop at the δ-th success.
			var res sample.AdaptiveResult
			for _, s := range simsL {
				res.Taken++
				if s >= tau {
					res.Hits++
					if res.Hits == p.delta {
						res.Reliable = true
						break
					}
				}
			}
			jl = p.scaleL(res, float64(nl))
		}
		out[x] = clampEstimate(jh+jl, float64(m))
	}
	return out, nil
}
