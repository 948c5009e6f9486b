package core

import (
	"fmt"
	"sort"

	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// Merged strata over a sharded index (lsh.ShardGroup / lsh.GroupSnapshot).
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
// Every estimator has one constructor, over a *lsh.GroupSnapshot (or, for
// cross joins, a BipartiteStratum built from two). A one-shard group skips
// the merge: stratumOf hands the estimators the snapshot's own *lsh.Table,
// and NewBipartiteStratum the plain *lsh.Bipartite of two one-shard sides.
// So lsh.SingleSnapshot of an unsharded index, or any S = 1 capture,
// samples draw-for-draw as the index itself, and SampleH keeps its flat
// path there.

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

// stratumOf returns the stratum that table t induces on gs: the snapshot's
// own table at one shard, which keeps a one-shard group draw-for-draw the
// unsharded index and lets SampleH take the flat path, and the merged
// per-shard view otherwise.
func stratumOf(gs *lsh.GroupSnapshot, t int) (stratum, error) {
	if gs.S() > 1 {
		ms, err := NewMergedStratum(gs, t)
		if err != nil {
			return nil, err
		}
		return ms, nil
	}
	if t < 0 || t >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", t, gs.L())
	}
	return gs.Snap(0).Table(t), nil
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
	if err := lsh.CompatibleCross(left, right); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return mergeBipartite(left, right, t, matchShards(left, right, t))
}

// matchShards returns the component source that builds the bipartite
// matching of left shard a and right shard b afresh.
func matchShards(left, right *lsh.GroupSnapshot, t int) func(a, b int) (*lsh.Bipartite, error) {
	return func(a, b int) (*lsh.Bipartite, error) {
		return lsh.NewBipartite(left.Snap(a), right.Snap(b), t)
	}
}

// mergeBipartite assembles the merged view of a compatible group pair from
// its S_left·S_right shard-pair matchings, comp(a, b) supplying each.
// Offsets and cumulative weights always come from the given snapshots,
// since a publish on one shard shifts every later shard's dense offset.
func mergeBipartite(left, right *lsh.GroupSnapshot, t int, comp func(a, b int) (*lsh.Bipartite, error)) (*MergedBipartiteStratum, error) {
	if t < 0 || t >= left.L() || t >= right.L() {
		return nil, fmt.Errorf("core: table %d out of range", t)
	}
	ms := &MergedBipartiteStratum{left: left, right: right, t: t}
	for a := 0; a < left.S(); a++ {
		for b := 0; b < right.S(); b++ {
			bp, err := comp(a, b)
			if err != nil {
				return nil, err
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
// captured group pair (see bipartiteStratum). The view is immutable —
// callers answering repeated estimates over an unchanged capture should
// build it once, cache it keyed on the pair's version vectors (see
// BipartiteStratumCache), and construct estimators over it per call
// (estimator construction itself is cheap).
func NewBipartiteStratum(left, right *lsh.GroupSnapshot, t int) (BipartiteStratum, error) {
	return bipartiteStratum(left, right, t, matchShards(left, right, t))
}

// bipartiteStratum builds table t's cross stratum of a captured group pair
// from its shard-pair matchings, comp(a, b) supplying each: the plain
// matching of the two snapshots at one shard per side, which keeps a
// one-shard cross join draw-for-draw the single-snapshot one, and the
// merged per-shard-pair decomposition otherwise.
func bipartiteStratum(left, right *lsh.GroupSnapshot, t int, comp func(a, b int) (*lsh.Bipartite, error)) (BipartiteStratum, error) {
	if err := lsh.CompatibleCross(left, right); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if left.S() > 1 || right.S() > 1 {
		ms, err := mergeBipartite(left, right, t, comp)
		if err != nil {
			return nil, err
		}
		return ms, nil
	}
	bp, err := comp(0, 0)
	if err != nil {
		return nil, err
	}
	return bp, nil
}
