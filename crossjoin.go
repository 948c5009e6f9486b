package lshjoin

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"lshjoin/internal/core"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/xrand"
)

// CrossJoin estimates general (non-self) join sizes between two collections
// hashed with the same LSH functions (App. B.2.2). It is a live object:
// both sides are writable (InsertLeft / InsertRight and their batch forms)
// and optionally sharded (Options.Shards partitions each side across S
// independent index shards, exactly like NewSharded). Estimates run over an
// atomically captured pair of shard-snapshot vectors — the merged bipartite
// bucket matching between the two groups decomposes into per-shard-pair
// matchings, so the general LSH-SS estimator serves over shards with
// statistics exactly equal to the unsharded union (N_H, M, membership).
//
// With Shards == 1 and no inserts, a CrossJoin is draw-for-draw identical
// to the static single-snapshot cross join of earlier releases: same
// indexes, same estimator seed stream, same results. All methods are safe
// for unsynchronized concurrent use.
type CrossJoin struct {
	opt    Options
	family lsh.Family
	sim    core.SimFunc
	left   *lsh.ShardGroup
	right  *lsh.ShardGroup

	// Durable backing (nil for in-memory cross joins), one store per shard
	// per side; closed flips once.
	leftStores, rightStores []*persist.Store
	closed                  atomic.Bool

	seedCtr atomic.Uint64

	// The bipartite stratum view (the bucket matchings estimates sample
	// through) is rebuilt lazily whenever either side published; the cache
	// is keyed on the full version-vector pair — summed versions alias
	// across concurrent captures — at per-shard-pair granularity, so a
	// single-shard publish rebuilds one row of components and reuses the
	// rest (see core.BipartiteStratumCache).
	strat *core.BipartiteStratumCache
}

// NewCrossJoin indexes both sides with identical hash functions. Options
// semantics match New, with two differences: Shards is honored (each side
// is partitioned across Options.Shards index shards, default 1), and
// Tables must be 1 — the general estimator stratifies by the single
// bipartite bucket matching of App. B.2.2, and a multi-table request is
// rejected with an error rather than silently discarded. With Options.Dir
// set, a durable two-sided store is created there — one group store per
// side under a cross manifest — and every published shard version on either
// side persists across restarts; reopen with OpenCrossJoin and call Close
// to checkpoint on shutdown.
func NewCrossJoin(left, right []Vector, opt Options) (*CrossJoin, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	if opt.Tables != 1 {
		return nil, fmt.Errorf("%w: cross join supports exactly 1 table, got Tables = %d (App. B.2.2 stratifies by one bipartite bucket matching)", ErrInvalidOptions, opt.Tables)
	}
	if len(left) == 0 || len(right) == 0 {
		return nil, fmt.Errorf("lshjoin: cross join needs non-empty sides")
	}
	// Ids pack (shard, local) into one int (see lsh.GroupID); with more than
	// one shard the shard bits don't fit a 32-bit int.
	if opt.Shards > 1 && bits.UintSize < 64 {
		return nil, fmt.Errorf("lshjoin: Shards > 1 requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	family, sim := familyFor(opt)
	lg, err := lsh.NewShardGroup(left, family, opt.K, 1, opt.Shards)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: left index: %w", err)
	}
	rg, err := lsh.NewShardGroup(right, family, opt.K, 1, opt.Shards)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: right index: %w", err)
	}
	cj := &CrossJoin{
		opt: opt, family: family, sim: sim, left: lg, right: rg,
		strat: core.NewBipartiteStratumCache(0),
	}
	if opt.Dir != "" {
		if cj.leftStores, cj.rightStores, err = persist.CreateCross(faultfs.OS{}, opt.Dir, lg, rg); err != nil {
			return nil, fmt.Errorf("lshjoin: %w", err)
		}
		applyStorePolicy(opt, cj.leftStores...)
		applyStorePolicy(opt, cj.rightStores...)
	}
	return cj, nil
}

// NewCrossJoinSharded is NewCrossJoin with an explicit shard count: it
// overrides Options.Shards with shards and routes each side across that
// many index shards. It exists for symmetry with NewSharded; NewCrossJoin
// with Options.Shards set behaves identically.
func NewCrossJoinSharded(left, right []Vector, opt Options, shards int) (*CrossJoin, error) {
	opt.Shards = shards
	return NewCrossJoin(left, right, opt)
}

// capture publishes pending inserts on both sides and returns the pair of
// shard-snapshot vectors one estimate runs over. Each side's vector is
// internally consistent and immutable; a concurrent writer that races the
// capture lands in the next one.
func (cj *CrossJoin) capture() (l, r *lsh.GroupSnapshot) {
	return cj.left.Capture(), cj.right.Capture()
}

// Shards returns the per-side shard count S.
func (cj *CrossJoin) Shards() int { return cj.left.S() }

// LeftN and RightN return the side sizes |U| and |V|, including all
// completed inserts.
func (cj *CrossJoin) LeftN() int  { return cj.left.Capture().N() }
func (cj *CrossJoin) RightN() int { return cj.right.Capture().N() }

// LeftVersions and RightVersions return the per-shard publish versions of
// the latest captured side (1 per fresh shard).
func (cj *CrossJoin) LeftVersions() []uint64  { return cj.left.Capture().Versions() }
func (cj *CrossJoin) RightVersions() []uint64 { return cj.right.Capture().Versions() }

// LeftVector and RightVector return the vector with the given id (as
// returned by InsertLeft / InsertRight, or a dense initial id for the
// construction-time vectors of a single-shard cross join).
func (cj *CrossJoin) LeftVector(id int) Vector  { return groupVector(cj.left, id) }
func (cj *CrossJoin) RightVector(id int) Vector { return groupVector(cj.right, id) }

func groupVector(g *lsh.ShardGroup, id int) Vector {
	s, local := lsh.SplitGroupID(int64(id))
	return g.Capture().Snap(s).Data()[local]
}

// InsertLeft adds a vector to the left side, returning its id (shard-encoded
// like ShardedCollection ids; a plain dense id with one shard). Only the
// vector's home shard serializes, so inserts on different shards proceed in
// parallel, and estimates keep serving over captured snapshots throughout.
func (cj *CrossJoin) InsertLeft(v Vector) int { return insertOne(cj.left, v, cj.opt.PublishEvery) }

// InsertRight adds a vector to the right side; see InsertLeft.
func (cj *CrossJoin) InsertRight(v Vector) int { return insertOne(cj.right, v, cj.opt.PublishEvery) }

// InsertBatchLeft routes each vector to its home shard of the left side and
// batch-inserts the per-shard runs through the batched signature engine,
// returning per-vector ids aligned with vs.
func (cj *CrossJoin) InsertBatchLeft(vs []Vector) []int {
	return insertBatch(cj.left, vs, cj.opt.PublishEvery)
}

// InsertBatchRight batch-inserts into the right side; see InsertBatchLeft.
func (cj *CrossJoin) InsertBatchRight(vs []Vector) []int {
	return insertBatch(cj.right, vs, cj.opt.PublishEvery)
}

// stratum returns the bipartite stratum view for the captured pair,
// reusing the cached one when neither side moved — a static corpus served
// with repeated estimates builds the bucket matchings once, like the old
// static cross join did at construction. The cache is per-shard-pair: a
// publish on one shard rebuilds only that shard's row (or column) of
// bipartite components, outside the lock, and the view advances only to a
// componentwise-dominating version-vector pair (summed versions alias
// across concurrent captures); a reader that raced publication gets a
// correct one-off view without evicting a newer cached one.
func (cj *CrossJoin) stratum(lgs, rgs *lsh.GroupSnapshot) (core.BipartiteStratum, error) {
	return cj.strat.View(lgs, rgs)
}

// EstimateJoinSize runs the general LSH-SS estimator at tau with the default
// budget (m_H = m_L = (|U|+|V|)/2) over the current captured pair.
func (cj *CrossJoin) EstimateJoinSize(tau float64) (float64, error) {
	return cj.EstimateJoinSizeBudget(tau, 0, 0)
}

// EstimateJoinSizeBudget runs general LSH-SS with explicit per-stratum
// sample budgets (≤ 0 keeps the default). Larger m_L widens the reliable
// regime of SampleL at mid thresholds at proportional cost.
func (cj *CrossJoin) EstimateJoinSizeBudget(tau float64, mH, mL int) (float64, error) {
	ctr := cj.seedCtr.Add(1)
	lgs, rgs := cj.capture()
	bs, err := cj.stratum(lgs, rgs)
	if err != nil {
		return 0, err
	}
	var opts []core.LSHSSOption
	if mH > 0 || mL > 0 {
		n := (lgs.N() + rgs.N()) / 2
		if mH <= 0 {
			mH = n
		}
		if mL <= 0 {
			mL = n
		}
		opts = append(opts, core.WithSampleSizes(mH, mL))
	}
	est, err := core.NewGeneralLSHSS(bs, opts...)
	if err != nil {
		return 0, err
	}
	return est.Estimate(tau, xrand.New(xrand.Mix2(cj.opt.Seed^0xC105515, ctr)))
}

// EstimateJoinSizeCurve estimates the general selectivity curve J(τ) for a
// grid of thresholds from one shared sampling pass over the current
// captured pair — the cross-join analogue of Collection.EstimateJoinSizeCurve.
func (cj *CrossJoin) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	ctr := cj.seedCtr.Add(1)
	lgs, rgs := cj.capture()
	bs, err := cj.stratum(lgs, rgs)
	if err != nil {
		return nil, err
	}
	est, err := core.NewGeneralLSHSS(bs)
	if err != nil {
		return nil, err
	}
	return est.EstimateCurve(taus, xrand.New(xrand.Mix2(cj.opt.Seed^0xC105515, ctr)))
}

// ExactJoinSize computes the true cross-join size by exhaustive comparison
// over the current captured pair (O(|U|·|V|); for validation and modest
// sizes).
func (cj *CrossJoin) ExactJoinSize(tau float64) int64 {
	lgs, rgs := cj.capture()
	return core.ExactGeneralJoin(lgs.Data(), rgs.Data(), cj.sim, tau)
}

// PairsSharingBucket returns N_H = Σ b_j·c_i over buckets with matching g
// values — the bipartite analogue of the extended index's bucket counts,
// summed over the per-shard-pair matchings (exactly equal to the unsharded
// union's N_H).
func (cj *CrossJoin) PairsSharingBucket() int64 {
	lgs, rgs := cj.capture()
	bs, err := cj.stratum(lgs, rgs)
	if err != nil {
		return 0
	}
	return bs.NH()
}
