package lshjoin

import (
	"fmt"

	"lshjoin/internal/core"
	"lshjoin/internal/lc"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// Algorithm names a join-size estimation algorithm from the paper.
type Algorithm string

// The algorithms of the paper's evaluation (§3–§5, Appendices B–C).
const (
	// AlgoLSHSS is Algorithm 1: stratified sampling with a safe lower bound.
	AlgoLSHSS Algorithm = "lsh-ss"
	// AlgoLSHSSD is LSH-SS with the dampened scale-up c_s = n_L/δ.
	AlgoLSHSSD Algorithm = "lsh-ss-d"
	// AlgoRSPop is uniform random pair sampling (§3.1).
	AlgoRSPop Algorithm = "rs-pop"
	// AlgoRSCross is cross sampling: √m records, all pairs among them (§3.1).
	AlgoRSCross Algorithm = "rs-cross"
	// AlgoLSHS is LSH-S: sample-weighted collision analysis (§4.3).
	AlgoLSHS Algorithm = "lsh-s"
	// AlgoJU is the closed-form uniformity estimator, Equation (4).
	AlgoJU Algorithm = "ju"
	// AlgoJUNumeric is J_U with the family's true collision curve integrated
	// numerically instead of Definition 3's idealized p(s) = s.
	AlgoJUNumeric Algorithm = "ju-numeric"
	// AlgoLC is the adapted Lattice Counting baseline (§3.2).
	AlgoLC Algorithm = "lc"
	// AlgoMedian is the per-table median estimator (App. B.2.1, needs ℓ > 1).
	AlgoMedian Algorithm = "median"
	// AlgoVirtual is the virtual-bucket estimator (App. B.2.1, needs ℓ > 1).
	AlgoVirtual Algorithm = "virtual"
)

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoLSHSS, AlgoLSHSSD, AlgoRSPop, AlgoRSCross, AlgoLSHS,
		AlgoJU, AlgoJUNumeric, AlgoLC, AlgoMedian, AlgoVirtual,
	}
}

// Estimator produces join-size estimates. Implementations returned by
// Collection.Estimator own their random state: calls are reproducible for a
// fixed EstimatorSeed and estimator construction order.
//
// An estimator binds to the collection version current at its construction
// and answers over that immutable snapshot forever: vectors inserted later
// never perturb it, and no staleness error exists. To estimate over newer
// data, construct a new estimator — construction is cheap (no sampling or
// hashing happens until Estimate).
type Estimator interface {
	// Name identifies the algorithm and configuration.
	Name() string
	// Estimate returns an estimate of the join size at tau (always ≥ 0).
	Estimate(tau float64) (float64, error)
}

// EstimatorOption tunes estimator construction.
type EstimatorOption func(*estOpts)

type estOpts struct {
	sampleH int
	sampleL int
	delta   int
	damp    float64 // DampConst factor; 0 = keep algorithm default
	seed    uint64
	support int // LC min support ξ
}

// WithSampleBudget sets the per-stratum sample sizes (LSH-SS: m_H and m_L;
// RS/LSH-S use budgetH as their pair budget m).
func WithSampleBudget(budgetH, budgetL int) EstimatorOption {
	return func(o *estOpts) { o.sampleH, o.sampleL = budgetH, budgetL }
}

// WithDelta sets LSH-SS's answer-size threshold δ.
func WithDelta(delta int) EstimatorOption {
	return func(o *estOpts) { o.delta = delta }
}

// WithDampFactor sets a constant dampened scale-up factor c_s ∈ (0, 1]
// (LSH-SS family only; see App. C.3).
func WithDampFactor(cs float64) EstimatorOption {
	return func(o *estOpts) { o.damp = cs }
}

// WithEstimatorSeed fixes the estimator's random stream for reproducibility.
func WithEstimatorSeed(seed uint64) EstimatorOption {
	return func(o *estOpts) { o.seed = seed }
}

// WithMinSupport sets Lattice Counting's support threshold ξ.
func WithMinSupport(xi int) EstimatorOption {
	return func(o *estOpts) { o.support = xi }
}

// seeded adapts a core estimator to the public interface with owned RNG.
type seeded struct {
	inner core.Estimator
	rng   *xrand.RNG
}

func (s *seeded) Name() string { return s.inner.Name() }

func (s *seeded) Estimate(tau float64) (float64, error) {
	return s.inner.Estimate(tau, s.rng)
}

// ssOptions converts the generic estimator options to LSH-SS options, with
// sample sizes defaulting to n (the paper's choice).
func (o *estOpts) ssOptions(n int) []core.LSHSSOption {
	var ssOpts []core.LSHSSOption
	if o.sampleH > 0 || o.sampleL > 0 {
		h, l := o.sampleH, o.sampleL
		if h <= 0 {
			h = n
		}
		if l <= 0 {
			l = n
		}
		ssOpts = append(ssOpts, core.WithSampleSizes(h, l))
	}
	if o.delta > 0 {
		ssOpts = append(ssOpts, core.WithDelta(o.delta))
	}
	return ssOpts
}

// buildEstimator constructs the requested algorithm over a captured
// shard-snapshot vector — the one algorithm switch behind every collection
// surface. At S = 1 the core constructors stratify by the shard
// snapshot's own tables, so a one-shard capture is draw-for-draw the
// unsharded path; at S > 1 the LSH-SS family, the median and
// virtual-bucket estimators sample through the merged per-table weight
// views (per-shard N_H plus cross-shard bipartite N_H — exactly the union
// index's stratum H), J_U and LSH-S consume the exact merged N_H, and the
// sampling baselines and Lattice Counting run over the dense union corpus.
func buildEstimator(gs *lsh.GroupSnapshot, sim core.SimFunc, opt Options, algo Algorithm, o estOpts) (core.Estimator, error) {
	ssOpts := o.ssOptions(gs.N())
	var inner core.Estimator
	var err error
	switch algo {
	case AlgoLSHSS:
		if o.damp > 0 {
			ssOpts = append(ssOpts, core.WithDamp(core.DampConst, o.damp))
		}
		inner, err = core.NewMergedLSHSS(gs, sim, ssOpts...)
	case AlgoLSHSSD:
		if o.damp > 0 {
			ssOpts = append(ssOpts, core.WithDamp(core.DampConst, o.damp))
		} else {
			ssOpts = append(ssOpts, core.WithDamp(core.DampAuto, 0))
		}
		inner, err = core.NewMergedLSHSS(gs, sim, ssOpts...)
	case AlgoRSPop:
		inner, err = core.NewRSPop(gs.Data(), sim, o.sampleH)
	case AlgoRSCross:
		inner, err = core.NewRSCross(gs.Data(), sim, o.sampleH)
	case AlgoLSHS:
		inner, err = core.NewMergedLSHS(gs, o.sampleH)
	case AlgoJU:
		inner, err = core.NewMergedJU(gs, core.JUClosedForm)
	case AlgoJUNumeric:
		inner, err = core.NewMergedJU(gs, core.JUNumeric)
	case AlgoLC:
		cfg := lc.Config{K: opt.K, Seed: o.seed}
		if o.support > 0 {
			cfg.MinSupport = o.support
		}
		inner, err = lc.New(gs.Data(), gs.Family(), cfg)
	case AlgoMedian:
		if opt.Tables < 2 {
			return nil, fmt.Errorf("lshjoin: %s needs Options.Tables > 1 (have %d)", algo, opt.Tables)
		}
		if o.damp > 0 {
			ssOpts = append(ssOpts, core.WithDamp(core.DampConst, o.damp))
		}
		inner, err = core.NewMergedMedianSS(gs, sim, ssOpts...)
	case AlgoVirtual:
		if opt.Tables < 2 {
			return nil, fmt.Errorf("lshjoin: %s needs Options.Tables > 1 (have %d)", algo, opt.Tables)
		}
		if o.damp > 0 {
			ssOpts = append(ssOpts, core.WithDamp(core.DampConst, o.damp))
		}
		inner, err = core.NewMergedVirtualSS(gs, sim, ssOpts...)
	default:
		return nil, fmt.Errorf("lshjoin: unknown algorithm %q", algo)
	}
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %s: %w", algo, err)
	}
	return inner, nil
}

// Estimator constructs the requested algorithm over the collection's
// current state — every algorithm of the paper, over any shard count. The
// estimator binds to the shard-snapshot vector captured now and reads those
// immutable per-shard versions for its whole lifetime; a remote collection
// fetches changed shards first, so its estimates are draw-for-draw those of
// an in-process collection with equal data, options and estimator seeds.
func (r *reader) Estimator(algo Algorithm, opts ...EstimatorOption) (Estimator, error) {
	var o estOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.seed == 0 {
		o.seed = r.nextSeed()
	}
	gs, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	inner, err := buildEstimator(gs, r.sim, r.opt, algo, o)
	if err != nil {
		return nil, err
	}
	return &seeded{inner: inner, rng: xrand.New(o.seed)}, nil
}
