package lshjoin

import (
	"lshjoin/internal/core"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// Vector is a sparse real-valued vector (sorted non-zero entries).
type Vector = vecmath.Vector

// Entry is one non-zero coordinate of a Vector.
type Entry = vecmath.Entry

// NewVector builds a Vector from entries (any order; duplicate dimensions
// are summed, zeros dropped, non-finite weights rejected).
func NewVector(entries []Entry) (Vector, error) { return vecmath.New(entries) }

// BinaryVector builds a set-of-words vector: weight 1 on each distinct dim.
func BinaryVector(dims []uint32) Vector { return vecmath.FromDims(dims) }

// Cosine returns the cosine similarity of two vectors in [-1, 1].
func Cosine(u, v Vector) float64 { return vecmath.Cosine(u, v) }

// Jaccard returns the Jaccard similarity of the vectors' supports.
func Jaccard(u, v Vector) float64 { return vecmath.Jaccard(u, v) }

// Measure selects the similarity measure (and with it the LSH family).
type Measure int

// Supported similarity measures.
const (
	// CosineSimilarity uses sign-random-projection LSH (Charikar).
	CosineSimilarity Measure = iota
	// JaccardSimilarity uses MinHash over vector supports.
	JaccardSimilarity
)

// Options configures a Collection.
type Options struct {
	// K is the number of hash functions concatenated per LSH table
	// (default 20, the paper's setting; PubMed-like dissimilar data prefers
	// ~5, see App. C.4).
	K int
	// Tables is ℓ, the number of LSH tables (default 1; >1 enables the
	// median and virtual-bucket estimators).
	Tables int
	// Seed drives all hashing and sampling (default 1).
	Seed uint64
	// Measure selects cosine (default) or Jaccard similarity.
	Measure Measure
	// PublishEvery, when > 0, makes Insert and InsertBatch publish a fresh
	// snapshot as soon as the pending delta reaches that many vectors:
	// 1 publishes per insert, larger values publish in size-bounded groups.
	// Publication is O(delta · log #buckets) through the persistent Fenwick
	// weight index, so per-insert publication stays affordable however many
	// buckets the tables hold. 0 (the default) keeps publish-on-read:
	// deltas accumulate until the next read on the Collection.
	PublishEvery int
	// Shards is the shard count S consumed by NewSharded and NewCrossJoin
	// (default 1): the key space is partitioned across S independent indexes
	// (per side, for a cross join) with consistent key-hash routing, inserts
	// on different shards never contend, and estimates merge per-shard
	// statistics. New ignores it — a Collection is always a single index.
	// NewSharded and NewCrossJoin with Shards == 1 behave draw-for-draw
	// identically to New and the static single-snapshot cross join.
	Shards int
	// Dir, when non-empty, makes the collection durable: New, NewSharded and
	// NewCrossJoin create a crash-safe store there (one sub-store per shard
	// for a sharded collection; two group stores under one cross manifest for
	// a cross join) and every published version is persisted — checkpointed
	// snapshots plus an fsynced delta log. Reopen with Open, OpenSharded or
	// OpenCrossJoin; call Close to checkpoint on shutdown. See the durability
	// section of the package documentation for the exact guarantees.
	Dir string
	// CheckpointBytes tunes the background checkpoint threshold of a durable
	// collection: once the delta-log bytes a recovery would replay exceed it,
	// the next publish switches to a fresh log and a background goroutine
	// checkpoints the published snapshot — the publish path itself never
	// writes a checkpoint. 0 keeps the store default (4 MiB); negative is
	// rejected. In-memory collections ignore it.
	CheckpointBytes int
	// SignPanelBytes caps the resident projection cache of a batch build.
	// When the fused dimension-major cache would exceed the budget, signing
	// streams the vocabulary in dimension-block panels and produces output
	// identical to the fused pass. 0 means the 64 MiB default; negative is
	// rejected.
	SignPanelBytes int
}

func (o *Options) fillDefaults() {
	if o.K == 0 {
		o.K = 20
	}
	if o.Tables == 0 {
		o.Tables = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
}

// familyFor resolves a validated measure to its LSH family and similarity
// function.
func familyFor(opt Options) (lsh.Family, core.SimFunc) {
	if opt.Measure == JaccardSimilarity {
		return lsh.NewMinHash(opt.Seed), vecmath.Jaccard
	}
	return lsh.NewSimHash(opt.Seed), vecmath.Cosine
}

// Collection is an indexed vector collection: the entry point for join size
// estimation, exact joins, and similarity search. It is the one-shard case
// of ShardedCollection — one index under the same read path — and keeps the
// plain single-store layout on disk.
//
// A Collection is safe for concurrent use: Insert and InsertBatch append to
// the index's pending delta under a write lock, reads run against
// atomically-published immutable snapshots, and estimators bind to the
// snapshot current at their construction. An estimator therefore keeps
// answering — correctly, over its own version — no matter how many vectors
// arrive after it was built; construct a new estimator to observe newer
// data.
type Collection struct {
	inProcess
}

// New indexes the vectors. The collection keeps a reference to the slice;
// callers must not mutate it afterwards. With Options.Dir set, a durable
// store is created there (ErrStoreExists if one already is) and every
// published version persists across restarts; reopen with Open.
func New(vectors []Vector, opt Options) (*Collection, error) {
	c := &Collection{}
	if err := c.build(vectors, opt, true); err != nil {
		return nil, err
	}
	return c, nil
}

// InsertBatch inserts vectors in order and returns the id of the first.
// The batch is signed through the batched signature engine, so bulk loading
// costs far less than repeated Inserts, and readers observe the whole batch
// atomically at the next read (or immediately, under Options.PublishEvery).
func (c *Collection) InsertBatch(vs []Vector) int {
	x := c.group.Shard(0)
	first := x.InsertBatch(vs)
	x.MaybePublish(c.opt.PublishEvery)
	return first
}
