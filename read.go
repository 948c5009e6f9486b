package lshjoin

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lshjoin/internal/core"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/xrand"
)

// reader is the one read path of Collection, ShardedCollection and
// RemoteCollection. Every estimator of the paper needs only the stratum
// view of one index — N_H, M and weighted pair draws — and a captured
// shard-snapshot vector provides it for any shard count, so every read is
// written once here over snapshot: a Collection is the one-shard
// ShardedCollection, and a RemoteCollection differs only in how it
// captures (fetching changed shard snapshots over the wire) and ingests.
type reader struct {
	opt Options
	sim core.SimFunc

	// snapshot captures the current shard-snapshot vector: in process it
	// publishes pending inserts shard by shard and never fails; remotely it
	// fetches every changed shard and fails with the first shard's error.
	snapshot func() (*lsh.GroupSnapshot, error)

	seedCtr atomic.Uint64

	// The exact joiner is rebuilt lazily whenever any shard's version moved;
	// the cache is keyed on the full per-shard version vector (sums alias:
	// concurrent captures (4,2) and (3,3) cover different corpora).
	joinerMu   sync.Mutex
	joiner     *exactjoin.Joiner
	joinerVers []uint64
}

// K returns the per-table hash function count.
func (r *reader) K() int { return r.opt.K }

// Tables returns the number of LSH tables ℓ (per shard; all shards share
// the hash functions, so table t means the same g everywhere).
func (r *reader) Tables() int { return r.opt.Tables }

// nextSeed derives a fresh deterministic seed for estimator construction.
// Every collection surface draws the same stream, which is what makes a
// one-shard ShardedCollection reproduce a Collection, and a remote
// collection an in-process one, call for call.
func (r *reader) nextSeed() uint64 {
	return xrand.Mix2(r.opt.Seed^0xE57AB1E, r.seedCtr.Add(1))
}

// EstimateJoinSize estimates |{(u,v): sim(u,v) ≥ tau, u ≠ v}| with LSH-SS
// under the paper's default parameters (m_H = m_L = n, δ = log₂ n, safe
// lower bound), merging per-shard statistics when the collection is
// sharded. Each call draws fresh randomness; use Estimator for
// reproducible or repeated estimation.
func (r *reader) EstimateJoinSize(tau float64) (float64, error) {
	est, err := r.Estimator(AlgoLSHSS)
	if err != nil {
		return 0, err
	}
	return est.Estimate(tau)
}

// EstimateJoinSizeCurve estimates the whole selectivity curve J(τ) for a
// grid of thresholds from one shared LSH-SS sampling pass — what an
// optimizer costing a similarity predicate at several candidate thresholds
// wants. The result aligns with taus and is monotone non-increasing after
// sorting taus ascending.
func (r *reader) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	gs, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	inner, err := core.NewMergedLSHSS(gs, r.sim)
	if err != nil {
		return nil, err
	}
	return inner.EstimateCurve(taus, xrand.New(r.nextSeed()))
}

// exactJoiner returns the inverted-index joiner over the union corpus of a
// fresh capture, rebuilding only when some shard published. The joiner is
// reused only on an exact version-vector match, so the dense ids it emits
// always translate through the returned capture's shard offsets.
func (r *reader) exactJoiner() (*exactjoin.Joiner, *lsh.GroupSnapshot, error) {
	gs, err := r.snapshot()
	if err != nil {
		return nil, nil, err
	}
	vers := gs.Versions()
	r.joinerMu.Lock()
	defer r.joinerMu.Unlock()
	if r.joiner != nil && slices.Equal(r.joinerVers, vers) {
		return r.joiner, gs, nil
	}
	j := exactjoin.NewJoiner(gs.Data())
	// Only move the cache forward: a reader that raced publication gets a
	// correct one-off joiner without evicting a newer cached one. "Forward"
	// must be judged on the full version vector — summed versions alias
	// (concurrent captures (4,2) and (3,3) cover different corpora but sum
	// equally), so a sum comparison could adopt a vector that does not
	// dominate the cached one and later serve a joiner for the wrong corpus
	// on an exact vector match. Componentwise dominance cannot: per-shard
	// versions are monotone, so a dominating vector is genuinely newer.
	// Incomparable vectors (concurrent captures that each saw a different
	// shard publish first) never advance the cache; both readers still get
	// correct one-off joiners.
	if ok, newer := lsh.VersionsDominate(vers, r.joinerVers); r.joiner == nil || ok && newer {
		r.joiner, r.joinerVers = j, vers
	}
	return j, gs, nil
}

// ExactJoinSize computes the true join size over the union corpus: the
// inverted-index exact joiner for cosine — O(Σ df²), for ground truth and
// small-to-medium collections — and the brute-force pair scan for other
// measures. A remote collection ships the corpus once per changed shard and
// counts locally.
func (r *reader) ExactJoinSize(tau float64) (int64, error) {
	if r.opt.Measure != CosineSimilarity {
		gs, err := r.snapshot()
		if err != nil {
			return 0, err
		}
		var count int64
		err = r.scanPairs(gs, tau, func(_, _ int, _ float64) { count++ })
		return count, err
	}
	j, _, err := r.exactJoiner()
	if err != nil {
		return 0, err
	}
	return j.CountAt(tau)
}

// scanPairs is the brute-force exact join — O(n²) similarity evaluations,
// the measure-agnostic fallback — calling emit for every unordered pair of
// the union corpus with sim ≥ tau, in dense ids.
func (r *reader) scanPairs(gs *lsh.GroupSnapshot, tau float64, emit func(i, j int, sim float64)) error {
	if err := exactjoin.CheckThreshold(tau); err != nil {
		return err
	}
	data := gs.Data()
	for i := range data {
		for j := i + 1; j < len(data); j++ {
			if s := r.sim(data[i], data[j]); s >= tau {
				emit(i, j, s)
			}
		}
	}
	return nil
}

// JoinPair is one similarity join result.
type JoinPair struct {
	U, V int     // vector indices, U < V
	Sim  float64 // their similarity
}

// denseToID converts a dense union index to the stable shard-encoded id.
func denseToID(gs *lsh.GroupSnapshot, dense int) int {
	s, local := gs.Locate(dense)
	return int(lsh.GroupID(s, local))
}

// search returns the ids of captured vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v, shard by shard.
func search(gs *lsh.GroupSnapshot, v Vector, tau float64) []int {
	var out []int
	for s := 0; s < gs.S(); s++ {
		ids := gs.Snap(s).Search(v, tau)
		out = slices.Grow(out, len(ids))
		for _, local := range ids {
			out = append(out, int(lsh.GroupID(s, int(local))))
		}
	}
	return out
}

// pairsSharingBucket returns the merged N_H of table 0: per-shard intra
// counts plus cross-shard bipartite counts, exactly the N_H a single index
// over the union corpus would maintain.
func pairsSharingBucket(gs *lsh.GroupSnapshot) (int64, error) {
	ms, err := core.NewMergedStratum(gs, 0)
	if err != nil {
		return 0, fmt.Errorf("lshjoin: %w", err)
	}
	return ms.NH(), nil
}

// versionSum is the summed per-shard publish version every Version
// accessor reports: it increases whenever any shard makes inserts visible
// to new readers.
func versionSum(gs *lsh.GroupSnapshot) uint64 {
	var v uint64
	for _, sv := range gs.Versions() {
		v += sv
	}
	//vsjlint:ignore versiondominance monotone change counter per its doc; dominance callers use ShardVersions
	return v
}

// inProcess is the in-process surface Collection and ShardedCollection
// share: the read path over a shard group, inserts routed across it, and,
// for a durable collection, one store per shard.
type inProcess struct {
	reader
	group *lsh.ShardGroup

	// Durable backing (nil for in-memory collections), one store per shard,
	// and the manifest writer Close runs after the final checkpoints (nil for
	// the plain single-store layout); closed flips once.
	stores []*persist.Store
	seal   func(versions []uint64) error
	closed atomic.Bool
}

// init binds the surface to its group; every read captures through it.
func (c *inProcess) init(opt Options, g *lsh.ShardGroup) {
	_, c.sim = familyFor(opt)
	c.opt, c.group = opt, g
	c.snapshot = func() (*lsh.GroupSnapshot, error) { return g.Capture(), nil }
}

// build validates opt and the corpus, indexes vectors into a shard group —
// one shard for a plain Collection, whatever opt.Shards says — and, with
// opt.Dir set, creates the durable store: the plain single-store layout for
// a Collection, a group store for a ShardedCollection.
func (c *inProcess) build(vectors []Vector, opt Options, plain bool) error {
	opt, err := opt.normalized()
	if err != nil {
		return err
	}
	if len(vectors) < 2 {
		return fmt.Errorf("lshjoin: need at least 2 vectors, got %d", len(vectors))
	}
	shards := opt.Shards
	if plain {
		shards = 1
	}
	// Ids pack (shard, local) into one int (see lsh.GroupID); with more than
	// one shard the shard bits don't fit a 32-bit int.
	if shards > 1 && bits.UintSize < 64 {
		return fmt.Errorf("lshjoin: Shards > 1 requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	family, _ := familyFor(opt)
	group, err := lsh.NewShardGroup(vectors, family, opt.K, opt.Tables, shards)
	if err != nil {
		return fmt.Errorf("lshjoin: %w", err)
	}
	c.init(opt, group)
	if opt.Dir == "" {
		return nil
	}
	if plain {
		var st *persist.Store
		st, err = persist.Create(faultfs.OS{}, opt.Dir, group.Shard(0))
		c.stores = []*persist.Store{st}
	} else {
		c.stores, err = persist.CreateGroup(faultfs.OS{}, opt.Dir, group)
		c.seal = groupSeal(opt.Dir, group)
	}
	if err != nil {
		return fmt.Errorf("lshjoin: %w", err)
	}
	applyStorePolicy(opt, c.stores...)
	return nil
}

// capture publishes pending inserts shard by shard and returns the
// shard-snapshot vector.
func (c *inProcess) capture() *lsh.GroupSnapshot { return c.group.Capture() }

// N returns the number of vectors (including all completed Inserts).
func (c *inProcess) N() int { return c.capture().N() }

// Vector returns the vector with the given id (as returned by Insert, or a
// dense initial id for the construction-time vectors of a single-shard
// collection).
func (c *inProcess) Vector(id int) Vector {
	s, local := lsh.SplitGroupID(int64(id))
	return c.capture().Snap(s).Data()[local]
}

// Version returns the publish version, summed over shards: it increases
// every time inserts become visible to new readers (1 per fresh shard). For
// the per-shard vector of a ShardedCollection see ShardVersions.
func (c *inProcess) Version() uint64 { return versionSum(c.capture()) }

// IndexBytes estimates the LSH index size, summed over shards, using the
// paper's §6.3 accounting (g values, bucket counts, vector ids).
func (c *inProcess) IndexBytes() int64 { return c.capture().SizeBytes() }

// PairsSharingBucket returns N_H of table 0: the number of vector pairs
// co-located in some bucket — the quantity the extended LSH index
// maintains. Over shards it is the per-shard intra counts plus the
// cross-shard bipartite counts, exactly equal to the N_H a single index
// over the union corpus would maintain.
func (c *inProcess) PairsSharingBucket() int64 {
	nh, _ := pairsSharingBucket(c.capture())
	return nh
}

// Insert adds a vector to the collection — routed to its home shard, the
// only writer that serializes — and returns the vector's id (shard-encoded
// with more than one shard; stable for the collection's lifetime). The
// insert costs ℓ·k hash evaluations, keeps bucket counts and N_H exact, and
// is visible to every subsequent read; estimators constructed earlier keep
// answering over the version they were built on. With
// Options.PublishEvery set, the home shard also publishes once its pending
// delta reaches the policy size, so lock-free readers observe fresh
// versions without issuing reads of their own.
func (c *inProcess) Insert(v Vector) int { return insertOne(c.group, v, c.opt.PublishEvery) }

// JoinPairs materializes the exact similarity join at tau. Cosine
// collections use the All-Pairs prefix-filtered joiner; other measures fall
// back to the brute-force pair scan (O(n²) similarity evaluations), so the
// API is complete across measures. Pair indices are vector ids (see
// Insert).
func (c *inProcess) JoinPairs(tau float64) ([]JoinPair, error) {
	if c.opt.Measure != CosineSimilarity {
		gs := c.capture()
		var out []JoinPair
		err := c.scanPairs(gs, tau, func(i, j int, s float64) {
			out = append(out, JoinPair{U: denseToID(gs, i), V: denseToID(gs, j), Sim: s})
		})
		return out, err
	}
	j, gs, _ := c.exactJoiner()
	raw, err := j.Pairs(tau)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(raw))
	for i, p := range raw {
		out[i] = JoinPair{U: denseToID(gs, int(p.U)), V: denseToID(gs, int(p.V)), Sim: p.Sim}
	}
	return out, nil
}

// SearchSimilar returns ids of indexed vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v — approximate search with the usual LSH
// false-negative caveat. The search runs lock-free against every shard's
// latest published version, with results in shard order.
func (c *inProcess) SearchSimilar(v Vector, tau float64) []int { return search(c.capture(), v, tau) }

// insertOne inserts v into g and applies the PublishEvery policy to its
// home shard.
func insertOne(g *lsh.ShardGroup, v Vector, every int) int {
	id := g.Insert(v)
	s, _ := lsh.SplitGroupID(id)
	g.Shard(s).MaybePublish(every)
	return int(id)
}

// insertBatch routes vs across g, applies the PublishEvery policy to every
// shard the batch touched, and returns the ids aligned with vs.
func insertBatch(g *lsh.ShardGroup, vs []Vector, every int) []int {
	ids64 := g.InsertBatch(vs)
	ids := make([]int, len(ids64))
	for i, id := range ids64 {
		ids[i] = int(id)
		s, _ := lsh.SplitGroupID(id)
		g.Shard(s).MaybePublish(every)
	}
	return ids
}
