package lshjoin

import "lshjoin/internal/lsh"

// ShardedCollection partitions the key space of an indexed vector collection
// across Options.Shards independent LSH index shards. Routing is consistent
// key-hashing over the vector's content, so a vector's home shard is a pure
// function of its value; inserts on different shards serialize only on their
// own shard's writer lock, and each shard publishes its own snapshot
// versions. Reads capture a shard-snapshot vector — one atomic pointer load
// per shard — and estimators merge the per-shard stratum statistics (N_H and
// cumulative bucket weights are additive across the partition, with
// cross-shard pairs handled by bipartite bucket matchings), so every
// Algorithm of the paper runs over shards.
//
// A Collection is this type's one-shard case: both run the same read path
// over a shard group, so with Shards == 1 a ShardedCollection answers draw
// for draw what a Collection built from the same vectors and options
// answers, and only the on-disk layout differs (a group store rather than
// a plain one). All methods are safe for unsynchronized concurrent use.
type ShardedCollection struct {
	inProcess
}

// NewSharded indexes the vectors across Options.Shards shards (default 1).
// The collection keeps references to the vectors; callers must not mutate
// them afterwards. With Options.Dir set, a durable group store is created
// there — one crash-safe sub-store per shard plus a group manifest — and
// every published shard version persists across restarts; reopen with
// OpenSharded.
func NewSharded(vectors []Vector, opt Options) (*ShardedCollection, error) {
	c := &ShardedCollection{}
	if err := c.build(vectors, opt, false); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the shard count S.
func (c *ShardedCollection) Shards() int { return c.group.S() }

// ShardOf returns the home shard encoded in a vector id returned by Insert.
func (c *ShardedCollection) ShardOf(id int) int {
	s, _ := lsh.SplitGroupID(int64(id))
	return s
}

// ShardVersions returns the per-shard publish versions of the latest
// captured shard-snapshot vector (1 per fresh shard).
func (c *ShardedCollection) ShardVersions() []uint64 { return c.capture().Versions() }

// InsertBatch routes each vector to its home shard and batch-inserts the
// per-shard runs through the batched signature engine, returning per-vector
// ids aligned with vs.
func (c *ShardedCollection) InsertBatch(vs []Vector) []int {
	return insertBatch(c.group, vs, c.opt.PublishEvery)
}
