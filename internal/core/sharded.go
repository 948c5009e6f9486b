package core

import (
	"fmt"
	"sort"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Merged estimators over a sharded index (lsh.ShardGroup / lsh.GroupSnapshot).
//
// Bucket keys are shard-invariant, so the union index's stratum H decomposes
// exactly over the partition: a union bucket whose members split m_1..m_S
// across shards contributes C(Σm_s, 2) = Σ_s C(m_s, 2) + Σ_{a<b} m_a·m_b
// pairs. MergedStratum materializes that identity as a weight view over
// S intra-shard components (the per-shard tables, whose Fenwick weight
// indexes already serve per-bucket cumulative weights) plus S·(S−1)/2
// cross-shard bipartite components (lsh.Bipartite over each shard pair).
// N_H sums component weights, SamplePair picks a component by its cumulative
// weight and then delegates to the component's own weighted bucket sampler,
// and SameBucket compares bucket keys across shards — together exactly the
// stratum interface Algorithm 1 samples through, so LSH-SS, its curve
// variant, the median estimator and the virtual-bucket estimator all run
// over shards unchanged, with the same deterministic RNG-split parallel
// sampling discipline as the single-index path.
//
// With S = 1 every merged constructor delegates to its single-snapshot
// counterpart, which makes an S=1 sharded collection draw-for-draw identical
// to the unsharded one.

// stratumComponent is one additive slice of the merged stratum H: an
// intra-shard table or a cross-shard bucket matching. samplePair returns
// dense union ids.
type stratumComponent interface {
	weight() int64
	samplePair(rng *xrand.RNG) (i, j int, ok bool)
}

// intraComponent wraps shard s's table: pairs co-bucketed within the shard.
type intraComponent struct {
	tab *lsh.Table
	off int
}

func (c intraComponent) weight() int64 { return c.tab.NH() }

func (c intraComponent) samplePair(rng *xrand.RNG) (i, j int, ok bool) {
	i, j, ok = c.tab.SamplePair(rng)
	return i + c.off, j + c.off, ok
}

// crossComponent wraps the bipartite matching of one shard pair: pairs whose
// members live on different shards but share a bucket key.
type crossComponent struct {
	bp         *lsh.Bipartite
	offL, offR int
}

func (c crossComponent) weight() int64 { return c.bp.NH() }

func (c crossComponent) samplePair(rng *xrand.RNG) (i, j int, ok bool) {
	u, v, ok := c.bp.SamplePair(rng)
	return u + c.offL, v + c.offR, ok
}

// MergedStratum is the global stratum-H weight view of table t across a
// captured shard-snapshot vector. It implements the stratum interface over
// dense union ids and is immutable and safe for concurrent use, like
// everything snapshot-backed.
type MergedStratum struct {
	gs    *lsh.GroupSnapshot
	t     int
	comps []stratumComponent
	cum   []int64 // cumulative component weights; cum[len-1] = NH
	nh    int64
}

// NewMergedStratum combines table t of every shard snapshot into one global
// weight view. Construction walks each shard pair's buckets once to build
// the bipartite matchings — O(S² · #buckets) — so estimators build it once
// and sample many times.
func NewMergedStratum(gs *lsh.GroupSnapshot, t int) (*MergedStratum, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged stratum needs a group snapshot")
	}
	if t < 0 || t >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", t, gs.L())
	}
	ms := &MergedStratum{gs: gs, t: t}
	for a := 0; a < gs.S(); a++ {
		ms.comps = append(ms.comps, intraComponent{tab: gs.Snap(a).Table(t), off: gs.Offset(a)})
		for b := a + 1; b < gs.S(); b++ {
			bp, err := lsh.NewBipartite(gs.Snap(a), gs.Snap(b), t)
			if err != nil {
				return nil, err
			}
			ms.comps = append(ms.comps, crossComponent{bp: bp, offL: gs.Offset(a), offR: gs.Offset(b)})
		}
	}
	ms.cum = make([]int64, len(ms.comps))
	for i, c := range ms.comps {
		ms.nh += c.weight()
		ms.cum[i] = ms.nh
	}
	return ms, nil
}

// M returns the total number of unordered pairs C(n, 2) of the union corpus.
func (ms *MergedStratum) M() int64 {
	n := int64(ms.gs.N())
	return n * (n - 1) / 2
}

// NH returns the union stratum-H size: Σ over components, exactly equal to
// the N_H a single index over the union corpus would maintain.
func (ms *MergedStratum) NH() int64 { return ms.nh }

// NL returns M − N_H.
func (ms *MergedStratum) NL() int64 { return ms.M() - ms.nh }

// Components returns the number of additive weight components
// (S intra-shard + C(S, 2) cross-shard).
func (ms *MergedStratum) Components() int { return len(ms.comps) }

// SamplePair draws a uniform random pair from the union stratum H: a
// component chosen with probability weight/N_H by its cumulative weight,
// then that component's own weighted bucket sampler (the per-shard Fenwick
// descent, or the bipartite matched-bucket search). Since every stratum-H
// pair belongs to exactly one component, the draw is uniform over the union.
func (ms *MergedStratum) SamplePair(rng *xrand.RNG) (i, j int, ok bool) {
	if ms.nh == 0 {
		return 0, 0, false
	}
	x := int64(rng.Uint64n(uint64(ms.nh)))
	c := sort.Search(len(ms.cum), func(k int) bool { return ms.cum[k] > x })
	return ms.comps[c].samplePair(rng)
}

// SameBucket reports whether dense pair (i, j) belongs to the union stratum
// H of table t — same-shard pairs test their shard's table, cross-shard
// pairs compare bucket keys across tables.
func (ms *MergedStratum) SameBucket(i, j int) bool {
	return ms.gs.SameBucketInTable(ms.t, i, j)
}

// MergedBipartiteStratum is the cross-group stratum-H weight view of
// App. B.2.2 over two captured shard-snapshot vectors: the bipartite bucket
// matching between the union sides, decomposed into the S_left·S_right
// per-shard-pair lsh.Bipartite components. Because bucket keys are
// shard-invariant, a union matched-bucket pair with b_j left members split
// across left shards and c_i right members split across right shards
// contributes Σ_a Σ_b b_j,a·c_i,b = b_j·c_i cross pairs — every stratum-H
// cross pair lives in exactly one component — so N_H sums component weights
// and SamplePair stays uniform over the union stratum. It implements the
// BipartiteStratum interface (dense ids within each group's own id space)
// and is immutable and safe for concurrent use.
type MergedBipartiteStratum struct {
	left, right *lsh.GroupSnapshot
	t           int
	comps       []crossComponent
	cum         []int64 // cumulative component weights; cum[len-1] = NH
	nh          int64
}

// NewMergedBipartiteStratum combines table t of every (left shard, right
// shard) pair into one cross-group weight view. Construction walks each
// shard pair's buckets once to build the bipartite matchings —
// O(S_left·S_right·#buckets) — so estimators build it once and sample many
// times. Both groups must be hashed with the same family and k.
func NewMergedBipartiteStratum(left, right *lsh.GroupSnapshot, t int) (*MergedBipartiteStratum, error) {
	return newMergedBipartiteStratumReuse(left, right, t, nil)
}

// newMergedBipartiteStratumReuse is NewMergedBipartiteStratum with component
// reuse: when reuse is non-nil, reuse(a, b) may return an already-built
// bipartite matching for shard pair (a, b) — valid only if both shards'
// snapshots are unchanged, which the caller is responsible for checking by
// version — and nil to build fresh. Offsets and cumulative weights are
// always reassembled from the given snapshots, since a publish on one shard
// shifts every later shard's dense offset.
func newMergedBipartiteStratumReuse(left, right *lsh.GroupSnapshot, t int, reuse func(a, b int) *lsh.Bipartite) (*MergedBipartiteStratum, error) {
	if err := lsh.CompatibleCross(left, right); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if t < 0 || t >= left.L() || t >= right.L() {
		return nil, fmt.Errorf("core: table %d out of range", t)
	}
	ms := &MergedBipartiteStratum{left: left, right: right, t: t}
	for a := 0; a < left.S(); a++ {
		for b := 0; b < right.S(); b++ {
			var bp *lsh.Bipartite
			if reuse != nil {
				bp = reuse(a, b)
			}
			if bp == nil {
				var err error
				bp, err = lsh.NewBipartite(left.Snap(a), right.Snap(b), t)
				if err != nil {
					return nil, err
				}
			}
			ms.comps = append(ms.comps, crossComponent{bp: bp, offL: left.Offset(a), offR: right.Offset(b)})
		}
	}
	ms.cum = make([]int64, len(ms.comps))
	for i, c := range ms.comps {
		ms.nh += c.weight()
		ms.cum[i] = ms.nh
	}
	return ms, nil
}

// M returns the total number of cross pairs |U|·|V| of the union sides.
func (ms *MergedBipartiteStratum) M() int64 {
	return int64(ms.left.N()) * int64(ms.right.N())
}

// NH returns the union cross-stratum-H size: Σ over shard-pair components,
// exactly equal to the N_H one bipartite matching over the union sides
// would maintain.
func (ms *MergedBipartiteStratum) NH() int64 { return ms.nh }

// NL returns M − N_H.
func (ms *MergedBipartiteStratum) NL() int64 { return ms.M() - ms.nh }

// LeftN and RightN return the union collection sizes.
func (ms *MergedBipartiteStratum) LeftN() int  { return ms.left.N() }
func (ms *MergedBipartiteStratum) RightN() int { return ms.right.N() }

// Components returns the number of additive weight components
// (S_left·S_right shard pairs).
func (ms *MergedBipartiteStratum) Components() int { return len(ms.comps) }

// SamplePair draws a uniform random cross pair from the union stratum H: a
// shard-pair component chosen with probability weight/N_H by its cumulative
// weight, then that component's matched-bucket sampler. Dense group ids.
func (ms *MergedBipartiteStratum) SamplePair(rng *xrand.RNG) (u, v int, ok bool) {
	if ms.nh == 0 {
		return 0, 0, false
	}
	x := int64(rng.Uint64n(uint64(ms.nh)))
	c := sort.Search(len(ms.cum), func(k int) bool { return ms.cum[k] > x })
	return ms.comps[c].samplePair(rng)
}

// SameBucket reports whether left dense vector u and right dense vector v
// have equal g values in table t — the cross-group stratum-H membership
// test the rejection sampler calls per candidate pair.
func (ms *MergedBipartiteStratum) SameBucket(u, v int) bool {
	return ms.left.SameBucketAcrossGroups(ms.t, u, ms.right, v)
}

// Sim returns the family similarity between left dense vector u and right
// dense vector v.
func (ms *MergedBipartiteStratum) Sim(u, v int) float64 {
	return ms.left.Family().Sim(ms.left.At(u), ms.right.At(v))
}

// NewBipartiteStratum builds the cross-group stratum view of table t for a
// captured group pair: the plain per-snapshot bipartite matching at one
// shard per side (preserving the historic draw stream exactly), the merged
// per-shard-pair decomposition otherwise. The view is immutable — callers
// answering repeated estimates over an unchanged capture should build it
// once, cache it keyed on the pair's version vectors, and construct
// estimators over it per call (estimator construction itself is cheap).
func NewBipartiteStratum(left, right *lsh.GroupSnapshot, t int) (BipartiteStratum, error) {
	if err := lsh.CompatibleCross(left, right); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if left.S() == 1 && right.S() == 1 {
		return lsh.NewBipartite(left.Snap(0), right.Snap(0), t)
	}
	return NewMergedBipartiteStratum(left, right, t)
}

// NewGeneralLSHSSOver builds the general estimator over a prebuilt
// bipartite stratum view, for callers that cache the (expensive) view
// across estimates; NewGeneralLSHSS and NewMergedGeneralLSHSS are the
// build-and-bind conveniences on top of it.
func NewGeneralLSHSSOver(bp BipartiteStratum, sim SimFunc, opts ...GeneralOption) (*GeneralLSHSS, error) {
	if bp == nil {
		return nil, fmt.Errorf("core: general LSH-SS needs a bipartite stratum")
	}
	return newGeneralLSHSS(bp, sim, opts)
}

// NewMergedGeneralLSHSS builds the general (non-self) LSH-SS estimator of
// App. B.2.2 over two captured shard-snapshot vectors, stratified by the
// merged table-0 bipartite matching. With one shard on each side it
// delegates to the plain bipartite matching of the two snapshots,
// draw-for-draw — which is what keeps an S=1 live cross join identical to
// the static single-snapshot path.
func NewMergedGeneralLSHSS(left, right *lsh.GroupSnapshot, sim SimFunc, opts ...GeneralOption) (*GeneralLSHSS, error) {
	bs, err := NewBipartiteStratum(left, right, 0)
	if err != nil {
		return nil, err
	}
	return newGeneralLSHSS(bs, sim, opts)
}

// NewMergedLSHSS builds LSH-SS over a captured shard-snapshot vector: the
// stratifying table (WithTable) is the merged per-table weight view, and the
// vector data is the dense union corpus. With one shard it delegates to
// NewLSHSS on that shard's snapshot, draw-for-draw.
func NewMergedLSHSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*LSHSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged LSH-SS needs a group snapshot")
	}
	if gs.S() == 1 {
		return NewLSHSS(gs.Snap(0), sim, opts...)
	}
	e, err := newSSBase(gs.N(), sim, opts)
	if err != nil {
		return nil, err
	}
	if e.tableIdx < 0 || e.tableIdx >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", e.tableIdx, gs.L())
	}
	ms, err := NewMergedStratum(gs, e.tableIdx)
	if err != nil {
		return nil, err
	}
	e.strat = ms
	e.view = sliceView(gs.Data())
	return e, nil
}

// NewMergedMedianSS builds the median estimator over a shard-snapshot
// vector: one merged LSH-SS per table, median of the per-table estimates.
func NewMergedMedianSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*MedianSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged median estimator needs a group snapshot")
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

// groupTables adapts a shard-snapshot vector plus its per-table merged
// strata to the virtual-bucket estimator's tableView.
type groupTables struct {
	gs     *lsh.GroupSnapshot
	data   sliceView
	strata []*MergedStratum
}

func (v groupTables) L() int                          { return v.gs.L() }
func (v groupTables) N() int                          { return v.gs.N() }
func (v groupTables) At(i int) vecmath.Vector         { return v.data.At(i) }
func (v groupTables) TableNH(t int) int64             { return v.strata[t].NH() }
func (v groupTables) SameAnyBucket(i, j int) bool     { return v.gs.SameAnyBucket(i, j) }
func (v groupTables) BucketMultiplicity(i, j int) int { return v.gs.BucketMultiplicity(i, j) }
func (v groupTables) SampleTablePair(t int, rng *xrand.RNG) (i, j int, ok bool) {
	return v.strata[t].SamplePair(rng)
}

// NewMergedVirtualSS builds the virtual-bucket estimator over a
// shard-snapshot vector: the per-table mixture weights are the merged
// N_H,t sums and the importance draws come from the merged per-table
// samplers, with bucket multiplicity evaluated across shards.
func NewMergedVirtualSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*VirtualSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged virtual-bucket estimator needs a group snapshot")
	}
	if gs.S() == 1 {
		return NewVirtualSS(gs.Snap(0), sim, opts...)
	}
	view := groupTables{gs: gs, data: sliceView(gs.Data())}
	for t := 0; t < gs.L(); t++ {
		ms, err := NewMergedStratum(gs, t)
		if err != nil {
			return nil, err
		}
		view.strata = append(view.strata, ms)
	}
	return newVirtualSSView(view, sim, opts)
}

// NewMergedJU builds the uniformity estimator over a shard-snapshot vector.
// JU consumes only (M, N_H, k) and the family's collision curve, and the
// merged N_H equals the union index's N_H exactly, so the sharded JU is
// equal — not just close — to the single-index JU over the same corpus.
func NewMergedJU(gs *lsh.GroupSnapshot, mode JUMode) (*JU, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: JU needs a group snapshot")
	}
	if gs.S() == 1 {
		return NewJU(gs.Snap(0), mode)
	}
	ms, err := NewMergedStratum(gs, 0)
	if err != nil {
		return nil, err
	}
	return newJUFrom(ms.M(), ms.NH(), gs.K(), gs.Family(), mode)
}

// NewMergedLSHS builds the sampled collision estimator over a shard-snapshot
// vector, with the merged table-0 N_H and the dense union corpus.
func NewMergedLSHS(gs *lsh.GroupSnapshot, m int) (*LSHS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: LSH-S needs a group snapshot")
	}
	if gs.S() == 1 {
		return NewLSHS(gs.Snap(0), m)
	}
	ms, err := NewMergedStratum(gs, 0)
	if err != nil {
		return nil, err
	}
	return newLSHSFrom(ms.M(), ms.NH(), gs.K(), gs.Family(), sliceView(gs.Data()), gs.N(), m)
}
