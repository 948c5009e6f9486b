package core

import (
	"fmt"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/sample"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// DampMode selects how SampleL scales its count when the adaptive loop
// exhausts its budget without reaching the answer-size threshold δ
// (line 10 of Algorithm 1).
type DampMode int

// Damp modes.
const (
	// DampOff returns the safe lower bound Ĵ_L = n_L (plain LSH-SS).
	DampOff DampMode = iota
	// DampAuto uses the paper's §6.1 default c_s = n_L/δ, i.e.
	// Ĵ_L = n_L·(n_L/δ)·(N_L/m_L) — the LSH-SS(D) configuration.
	DampAuto
	// DampConst uses a fixed dampening constant c_s ∈ (0, 1]:
	// Ĵ_L = n_L·c_s·(N_L/m_L) (App. C.3 studies c_s ∈ {0.1, 0.5, 1}).
	DampConst
)

// stratum abstracts the pair-space partition LSH-SS samples over: stratum H
// (co-bucketed pairs, weight-sampled) versus everything else. One LSH table
// implements it directly; a sharded group's merged per-table view (see
// sharded.go) implements it by combining per-shard weights, which is what
// lets one Algorithm 1 implementation serve both single and sharded indexes.
type stratum interface {
	// M is the total number of unordered pairs C(n, 2).
	M() int64
	// NH is the number of pairs sharing a bucket.
	NH() int64
	// NL is M − N_H.
	NL() int64
	// SamplePair draws a uniform random stratum-H pair; ok is false when
	// N_H = 0.
	SamplePair(rng *xrand.RNG) (i, j int, ok bool)
	// SameBucket reports whether the pair (i, j) belongs to stratum H.
	SameBucket(i, j int) bool
}

// LSHSS is Algorithm 1 of the paper: stratified sampling over the two strata
// induced by one LSH table. SampleH draws m_H uniform pairs from stratum H
// (co-bucketed pairs, each drawn by an O(log #buckets) descent of the
// table's persistent Fenwick weight index, or read from a flat view of the
// stratum built for the estimate when m_H ≥ 2·N_H) and scales by N_H/m_H;
// SampleL runs Lipton-style adaptive sampling over stratum L, scaling up
// only when it observed at least δ true pairs and otherwise returning a safe
// lower bound (or a dampened scale-up). The final estimate is Ĵ = Ĵ_H + Ĵ_L.
type LSHSS struct {
	params
	strat stratum
	data  []vecmath.Vector
	sim   SimFunc
}

// params are the tunables of Algorithm 1 that LSHSS, VirtualSS and
// GeneralLSHSS share.
type params struct {
	mH, mL      int
	delta       int
	damp        DampMode
	cs          float64
	alwaysScale bool // ablation: scale up even when unreliable
	table       int
}

// LSHSSOption customizes an LSH-SS-family estimator: LSHSS, MedianSS,
// VirtualSS or GeneralLSHSS.
type LSHSSOption func(*params)

// WithSampleSizes overrides m_H and m_L (both default to n, the paper's
// choice giving the Theorem 1/3 guarantees).
func WithSampleSizes(mH, mL int) LSHSSOption {
	return func(p *params) { p.mH, p.mL = mH, mL }
}

// WithDelta overrides the answer-size threshold δ (default ⌈log₂ n⌉).
func WithDelta(delta int) LSHSSOption {
	return func(p *params) { p.delta = delta }
}

// WithDamp selects the dampened scale-up of LSH-SS(D). cs is used only with
// DampConst.
func WithDamp(mode DampMode, cs float64) LSHSSOption {
	return func(p *params) { p.damp, p.cs = mode, cs }
}

// WithAlwaysScale disables the safe-lower-bound rule entirely, scaling the
// SampleL count by N_L/m_L even when unreliable. This exists for the
// ablation benchmarks; the paper's algorithm never does this.
func WithAlwaysScale() LSHSSOption {
	return func(p *params) { p.alwaysScale = true }
}

// WithTable selects which of the snapshot's ℓ tables induces the strata
// (default 0). The multi-table median estimator runs one LSHSS per table;
// the virtual-bucket stratum spans every table but still checks the index,
// and the general estimator, whose stratum is built by its caller, ignores
// it.
func WithTable(t int) LSHSSOption {
	return func(p *params) { p.table = t }
}

// maxReject bounds the rejection draws SampleL makes for one stratum-L pair
// before it treats the stratum as exhausted.
const maxReject = 4096

// resolveParams applies opts over the defaults m_H = m_L = n and the given
// δ, and validates the result.
func resolveParams(n, delta int, opts []LSHSSOption) (params, error) {
	p := params{mH: n, mL: n, delta: delta, damp: DampOff, cs: 1}
	for _, opt := range opts {
		opt(&p)
	}
	if p.mH < 1 || p.mL < 1 {
		return p, fmt.Errorf("core: sample sizes must be positive (mH=%d, mL=%d)", p.mH, p.mL)
	}
	if p.delta < 1 {
		return p, fmt.Errorf("core: δ must be positive, got %d", p.delta)
	}
	if p.damp == DampConst && (p.cs <= 0 || p.cs > 1) {
		return p, fmt.Errorf("core: dampening factor must be in (0, 1], got %v", p.cs)
	}
	return p, nil
}

// selfParams resolves the tunables of a self-join estimator over n vectors,
// whose δ defaults to ⌈log₂ n⌉.
func selfParams(n int, opts []LSHSSOption) (params, error) {
	if n < 2 {
		return params{}, fmt.Errorf("core: LSH-SS needs at least 2 vectors, got %d", n)
	}
	return resolveParams(n, int(math.Ceil(math.Log2(float64(n)))), opts)
}

// scaleL is SampleL's estimate Ĵ_L for a stratum of nl pairs from the
// adaptive run res (lines 9–12 of Algorithm 1).
func (p *params) scaleL(res sample.AdaptiveResult, nl float64) float64 {
	switch {
	case res.Reliable:
		// Terminated by n_L ≥ δ: full scale-up by N_L/i (line 12).
		return float64(res.Hits) * nl / float64(res.Taken)
	case p.alwaysScale:
		return float64(res.Hits) * nl / float64(p.mL)
	case p.damp == DampAuto:
		cs := float64(res.Hits) / float64(p.delta)
		return float64(res.Hits) * cs * nl / float64(p.mL)
	case p.damp == DampConst:
		return float64(res.Hits) * p.cs * nl / float64(p.mL)
	default:
		// Budget exhausted (lines 9–11): the safe lower bound.
		return float64(res.Hits)
	}
}

// NewMergedLSHSS builds LSH-SS over a captured shard-snapshot vector; wrap
// one snapshot with lsh.SingleSnapshot. The stratifying table (WithTable)
// is stratumOf's view, and the vector data is the dense union corpus. The
// estimator binds to the capture: it answers over those immutable versions
// forever, unaffected by concurrent inserts. sim defaults to cosine.
func NewMergedLSHSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*LSHSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: LSH-SS needs a group snapshot")
	}
	p, err := selfParams(gs.N(), opts)
	if err != nil {
		return nil, err
	}
	strat, err := stratumOf(gs, p.table)
	if err != nil {
		return nil, err
	}
	if sim == nil {
		sim = vecmath.Cosine
	}
	return &LSHSS{params: p, strat: strat, data: gs.Data(), sim: sim}, nil
}

// Name implements Estimator.
func (e *LSHSS) Name() string {
	if e.alwaysScale {
		return "LSH-SS(always-scale)"
	}
	if e.damp != DampOff {
		return "LSH-SS(D)"
	}
	return "LSH-SS"
}

// Detail reports the internals of one LSH-SS estimate, for diagnostics and
// the parameter-sweep experiments.
type Detail struct {
	Estimate  float64
	JH, JL    float64 // per-stratum estimates
	HitsH     int     // true pairs among the m_H stratum-H samples
	HitsL     int     // true pairs found by SampleL (n_L)
	TakenL    int     // pairs SampleL actually drew (i)
	ReliableL bool    // SampleL terminated by reaching δ
}

// Estimate implements Estimator.
func (e *LSHSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	d, err := e.EstimateDetailed(tau, rng)
	if err != nil {
		return 0, err
	}
	return d.Estimate, nil
}

// EstimateDetailed runs Algorithm 1 and returns per-stratum internals.
func (e *LSHSS) EstimateDetailed(tau float64, rng *xrand.RNG) (Detail, error) {
	if err := validateTau(tau); err != nil {
		return Detail{}, err
	}
	d := e.sampleH(tau, rng)
	e.sampleL(tau, rng, &d)
	d.Estimate = clampEstimate(d.JH+d.JL, float64(e.strat.M()))
	return d, nil
}

// sampleH is procedure SampleH: m_H uniform pairs from stratum H, scaled by
// N_H/m_H. When the budget covers a single table's stratum at least twice
// over (flatCover), the pairs are scored once up front (flatH) and each
// draw reads its pair's hit bit; otherwise each draw descends the weight
// tree and computes a fresh similarity. Both make the same draws.
func (e *LSHSS) sampleH(tau float64, rng *xrand.RNG) Detail {
	nh := e.strat.NH()
	if nh == 0 {
		return Detail{} // empty stratum contributes nothing
	}
	if src, ok := e.flatSource(); ok {
		return e.drawH(nh, rng, newFlatH(src, nh, tau, e.sim, e.data).draw)
	}
	return e.drawH(nh, rng, func(r *xrand.RNG) bool {
		i, j, _ := e.strat.SamplePair(r) // ok: N_H > 0
		return e.sim(e.data[i], e.data[j]) >= tau
	})
}

// drawH makes SampleH's m_H draws and scales the hits by N_H/m_H. The
// draws are independent, so they fan out across deterministic shards (see
// parallel.go), each on its own split RNG stream; summing per-shard hit
// counts in shard order reproduces the same estimate for any GOMAXPROCS.
func (e *LSHSS) drawH(nh int64, rng *xrand.RNG, hit func(r *xrand.RNG) bool) Detail {
	var d Detail
	shards := sampleShards(e.mH)
	rngs := rng.SplitN(shards)
	hits := make([]int, shards)
	runShards(shards, func(s int) {
		r := rngs[s]
		q := shardQuota(e.mH, shards, s)
		h := 0
		for x := 0; x < q; x++ {
			if hit(r) {
				h++
			}
		}
		hits[s] = h
	})
	for _, h := range hits {
		d.HitsH += h
	}
	d.JH = float64(d.HitsH) * float64(nh) / float64(e.mH)
	return d
}

// pairBuckets is a stratum that lists its multi-member buckets in
// weight-index order with their cumulative pair weights, as one
// *lsh.Table does. Merged strata do not: their draws first pick a
// component.
type pairBuckets interface {
	ForEachPairBucket(fn func(cum int64, ids []int32) bool)
}

// flatCover is the coverage m_H/N_H from which SampleH scores stratum H
// flat. The flat view costs one walk of the weight tree and N_H
// similarities before the first draw. In BenchmarkSampleH the descent,
// which scores only the pairs it draws, was faster at coverage 1 on the
// paper-default stratum, and the flat path was no slower from 2 on.
const flatCover = 2

// flatSource reports whether SampleH takes the flat path, and its source.
func (e *LSHSS) flatSource() (pairBuckets, bool) {
	src, ok := e.strat.(pairBuckets)
	return src, ok && int64(e.mH) >= flatCover*e.strat.NH()
}

// flatH is stratum H of one table laid out for a single estimate: the
// multi-member buckets in weight-index order, the bucket of every pair
// index, and one hit bit per pair. A draw makes Table.SamplePair's RNG
// calls — Uint64n(N_H), then Intn(b) and Intn(b−1) within the bucket — and
// looks up the bucket holding pair x, which is the bucket the weight-tree
// descent picks for x. Each unordered pair is scored once, as
// sim(ids[p], ids[q]) with p < q; a draw of (ids[q], ids[p]) reads the same
// bit, which is exact because SimFunc is bit-symmetric. So the flat path's
// estimates equal the descent's bit for bit.
type flatH struct {
	first []int64   // first[j]: pair index of bucket j's first pair
	ids   [][]int32 // ids[j]: bucket j's members
	owner []int32   // owner[x]: the bucket holding pair x
	hit   []bool    // pair (ids[j][p], ids[j][q]), p < q, at first[j] + q(q−1)/2 + p
}

// newFlatH lists src's multi-member buckets and scores their nh pairs at
// tau, fanned out over runs of buckets of roughly equal pair weight.
func newFlatH(src pairBuckets, nh int64, tau float64, sim SimFunc, data []vecmath.Vector) *flatH {
	f := &flatH{
		first: make([]int64, 0, nh), // every listed bucket holds a pair
		ids:   make([][]int32, 0, nh),
		owner: make([]int32, nh),
		hit:   make([]bool, nh),
	}
	var next int64
	src.ForEachPairBucket(func(cum int64, ids []int32) bool {
		j := int32(len(f.ids))
		for x := next; x < cum; x++ {
			f.owner[x] = j
		}
		f.first = append(f.first, next)
		f.ids = append(f.ids, ids)
		next = cum
		return true
	})
	// Scoring shard s starts at the bucket holding pair s·nh/shards; any
	// split gives the same bits.
	shards := sampleShards(int(nh))
	start := func(s int) int {
		if s == shards {
			return len(f.ids)
		}
		return int(f.owner[int64(s)*nh/int64(shards)])
	}
	runShards(shards, func(s int) {
		for j := start(s); j < start(s+1); j++ {
			ids, off := f.ids[j], f.first[j]
			for q := 1; q < len(ids); q++ {
				vq := data[ids[q]]
				for p := 0; p < q; p++ {
					f.hit[off+int64(p)] = sim(data[ids[p]], vq) >= tau
				}
				off += int64(q)
			}
		}
	})
	return f
}

// draw makes one SampleH draw and returns whether its pair is a hit.
func (f *flatH) draw(r *xrand.RNG) bool {
	j := f.owner[r.Uint64n(uint64(len(f.owner)))]
	b := len(f.ids[j])
	p := r.Intn(b)
	q := r.Intn(b - 1)
	if q >= p {
		q++
	} else {
		p, q = q, p
	}
	return f.hit[f.first[j]+int64(q*(q-1)/2+p)]
}

// lShard records one shard's slice of the adaptive sampling stream: which of
// its draws hit, how many draws it made, and whether its rejection sampler
// gave up early.
type lShard struct {
	hitPos    []int32 // 0-based draw positions within the shard that hit
	taken     int
	exhausted bool
}

// sampleL is procedure SampleL: adaptive sampling over stratum L with the
// safe lower bound (or dampened scale-up) on budget exhaustion.
//
// Parallel form: the m_L-draw budget is split across deterministic shards,
// each drawing on its own split stream and recording per-draw outcomes. The
// merge then replays Lipton's adaptive loop over the concatenated shard
// streams in shard order, stopping at δ hits or m_L draws exactly as the
// sequential loop would. A shard may stop early once its own hits reach δ:
// earlier shards can only add hits, so the merged walk is guaranteed to
// terminate at or before that point and never consults the unrecorded tail.
func (e *LSHSS) sampleL(tau float64, rng *xrand.RNG, d *Detail) {
	nl := e.strat.NL()
	if nl == 0 {
		return
	}
	notSame := func(i, j int) bool { return !e.strat.SameBucket(i, j) }
	shards := sampleShards(e.mL)
	rngs := rng.SplitN(shards)
	outs := make([]lShard, shards)
	runShards(shards, func(s int) {
		r := rngs[s]
		q := shardQuota(e.mL, shards, s)
		o := &outs[s]
		for x := 0; x < q && len(o.hitPos) < e.delta; x++ {
			i, j, ok := sample.RejectPair(r, len(e.data), notSame, maxReject)
			if !ok {
				o.exhausted = true
				break
			}
			if e.sim(e.data[i], e.data[j]) >= tau {
				o.hitPos = append(o.hitPos, int32(x))
			}
			o.taken++
		}
	})
	res := mergeAdaptive(outs, e.delta, e.mL)
	d.HitsL = res.Hits
	d.TakenL = res.Taken
	d.ReliableL = res.Reliable
	d.JL = e.scaleL(res, float64(nl))
}

// Params reports the effective tunables (n-scaled defaults resolved).
func (e *LSHSS) Params() (mH, mL, delta int, damp DampMode, cs float64) {
	return e.mH, e.mL, e.delta, e.damp, e.cs
}
