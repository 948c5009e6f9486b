package lshjoin

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
	"lshjoin/internal/xrand"
)

// Typed network errors, re-exported so callers can errors.Is against them
// without importing internals.
var (
	// ErrShardUnavailable reports a shard server that could not be reached
	// or did not answer within the call timeout, after the configured
	// retries. No partial estimate is ever served: the whole call fails.
	ErrShardUnavailable = shardrpc.ErrUnavailable
	// ErrShardProtocol reports a shard server speaking the protocol wrong:
	// corrupt frames, malformed payloads, mismatched responses, or an
	// identity change across a reconnect.
	ErrShardProtocol = shardrpc.ErrProtocol
)

// RemoteOption tunes a RemoteCollection's transport.
type RemoteOption func(*remoteOpts)

type remoteOpts struct {
	rpc shardrpc.ClientOptions
}

// WithDialTimeout bounds connection establishment per shard (default 5s).
func WithDialTimeout(d time.Duration) RemoteOption {
	return func(o *remoteOpts) { o.rpc.DialTimeout = d }
}

// WithCallTimeout bounds one request/response exchange per shard (default
// 10s). A shard that does not answer within it is unavailable; calls never
// hang.
func WithCallTimeout(d time.Duration) RemoteOption {
	return func(o *remoteOpts) { o.rpc.CallTimeout = d }
}

// WithRetryPolicy sets how many times a transiently failed idempotent call
// is re-attempted (retries ≥ 0; 0 disables retries) and the backoff before
// the first retry, doubling per attempt.
func WithRetryPolicy(retries int, backoff time.Duration) RemoteOption {
	return func(o *remoteOpts) {
		if retries <= 0 {
			o.rpc = o.rpc.WithNoRetries()
		} else {
			o.rpc.Retries = retries
		}
		o.rpc.Backoff = backoff
	}
}

// RemoteCollection is the coordinator side of network shard serving: the
// estimate surface of a ShardedCollection over S shard servers instead of S
// in-process shards. addrs[s] serves shard s of the consistent-hash key
// space — Insert routes with the same jump-hash routing as NewSharded. Only
// capture and ingest are remote: reads fetch per-shard snapshots (with a
// version-checked not-modified fast path), reassemble them into the group
// view, and from there run the read path a ShardedCollection runs — the
// same merged estimators, seed stream and exact-joiner cache — locally.
//
// A distributed estimate is therefore bit-equal to the in-process one: for
// the same vectors, options and estimator seeds, every algorithm returns
// exactly what an equivalent ShardedCollection returns, draw for draw (the
// remote_test property suite pins this at S ∈ {1, 4}). The guarantee rests
// on two proven equivalences: a snapshot restored from its wire encoding is
// sampling-equivalent to the original (the durability layer's restore
// property), and per-shard ingest publishes the same buckets the in-process
// writer publishes.
//
// Failure semantics: any shard failing — timeout, transport loss after
// retries, or protocol violation — fails the whole read with a typed error
// (ErrShardUnavailable, ErrShardProtocol, or a server rejection). There are
// no partial estimates over a subset of shards. All methods are safe for
// unsynchronized concurrent use.
type RemoteCollection struct {
	reader
	family  lsh.Family
	clients []*shardrpc.Client
	closed  atomic.Bool

	// Per-shard snapshot cache: versions are monotone per shard, so cached
	// entries only ever advance, and an unchanged shard costs one
	// not-modified round trip instead of a snapshot transfer.
	mu    sync.Mutex
	snaps []*lsh.Snapshot
}

// Connect dials the shard servers and performs the handshakes. Options
// follow the adopt-or-assert rule of Open: hashing fields (K, Tables, Seed,
// Measure) left zero adopt the servers' values, non-zero fields are
// assertions that must match every server (ErrInvalidOptions otherwise).
// Shards, if set, must equal len(addrs). Dir is rejected — a remote
// collection has no local store. All servers must share one hashing
// identity; a mismatch reports ErrInvalidOptions naming the shard.
func Connect(addrs []string, opt Options, ropts ...RemoteOption) (*RemoteCollection, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: Connect needs at least one shard address", ErrInvalidOptions)
	}
	if len(addrs) > lsh.MaxShards {
		return nil, fmt.Errorf("%w: %d shard addresses exceed the maximum %d", ErrInvalidOptions, len(addrs), lsh.MaxShards)
	}
	if len(addrs) > 1 && bits.UintSize < 64 {
		return nil, fmt.Errorf("lshjoin: more than one shard requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	if opt.Dir != "" {
		return nil, fmt.Errorf("%w: Dir is not supported on a remote collection (durability lives on the shard servers)", ErrInvalidOptions)
	}
	if opt.Shards != 0 && opt.Shards != len(addrs) {
		return nil, fmt.Errorf("%w: Shards = %d but %d shard addresses were given", ErrInvalidOptions, opt.Shards, len(addrs))
	}
	var ro remoteOpts
	for _, apply := range ropts {
		apply(&ro)
	}
	clients := make([]*shardrpc.Client, 0, len(addrs))
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for _, addr := range addrs {
		c, err := shardrpc.Dial(addr, ro.rpc)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("lshjoin: shard %d (%s): %w", len(clients), addr, err)
		}
		clients = append(clients, c)
	}
	h0 := clients[0].Hello()
	for s, c := range clients {
		if h := c.Hello(); h.Family != h0.Family || h.K != h0.K || h.Ell != h0.Ell {
			closeAll()
			return nil, fmt.Errorf("%w: shard %d (%s) hashes with %+v k=%d ℓ=%d, shard 0 with %+v k=%d ℓ=%d",
				ErrInvalidOptions, s, c.Addr(), h.Family, h.K, h.Ell, h0.Family, h0.K, h0.Ell)
		}
	}
	if opt, err = adopt(opt, "the shard servers", ErrShardProtocol, h0.Family, h0.K, h0.Ell, len(addrs)); err != nil {
		closeAll()
		return nil, err
	}
	c := &RemoteCollection{clients: clients, snaps: make([]*lsh.Snapshot, len(addrs))}
	c.family, c.sim = familyFor(opt)
	c.opt, c.snapshot = opt, c.capture
	return c, nil
}

// Close closes every shard connection. The shard servers themselves — and
// any durable state they hold — are unaffected. Idempotent.
func (c *RemoteCollection) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the shard count S (one per address).
func (c *RemoteCollection) Shards() int { return len(c.clients) }

// ShardOf returns the home shard encoded in a vector id returned by Insert.
func (c *RemoteCollection) ShardOf(id int) int {
	s, _ := lsh.SplitGroupID(int64(id))
	return s
}

// fetchShard fetches shard s's current snapshot, reusing have when the
// shard answers not-modified, and validates the decoded state against the
// pinned hashing identity.
func (c *RemoteCollection) fetchShard(s int, have *lsh.Snapshot) (*lsh.Snapshot, error) {
	haveVer := uint64(0)
	if have != nil {
		haveVer = have.Version()
	}
	version, blob, notMod, err := c.clients[s].Snapshot(haveVer)
	if err != nil {
		return nil, err
	}
	if notMod {
		if have == nil || version != haveVer {
			return nil, fmt.Errorf("shard answered not-modified for version %d we do not hold: %w", version, ErrShardProtocol)
		}
		return have, nil
	}
	idx, err := persist.DecodeSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("snapshot blob: %v: %w", err, ErrShardProtocol)
	}
	snap := idx.Current()
	if snap.Version() != version {
		return nil, fmt.Errorf("snapshot blob carries version %d, response header %d: %w", snap.Version(), version, ErrShardProtocol)
	}
	if snap.Family() != c.family || snap.K() != c.opt.K || snap.L() != c.opt.Tables {
		return nil, fmt.Errorf("snapshot blob hashes with a different identity: %w", ErrShardProtocol)
	}
	return snap, nil
}

// capture fetches the current shard-snapshot vector — the remote analogue
// of ShardGroup.Capture. Shards are fetched in parallel; unchanged shards
// cost one not-modified round trip. Any shard failing fails the capture
// with that shard's typed error.
func (c *RemoteCollection) capture() (*lsh.GroupSnapshot, error) {
	S := len(c.clients)
	c.mu.Lock()
	have := make([]*lsh.Snapshot, S)
	copy(have, c.snaps)
	c.mu.Unlock()

	snaps := make([]*lsh.Snapshot, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snaps[s], errs[s] = c.fetchShard(s, have[s])
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.clients[s].Addr(), err)
		}
	}
	// Advance the cache, per shard and forward only: shard versions are
	// monotone, so concurrent captures can only race each other toward
	// newer versions, never adopt an older snapshot over a newer one.
	c.mu.Lock()
	for s, snap := range snaps {
		if c.snaps[s] == nil || snap.Version() > c.snaps[s].Version() {
			c.snaps[s] = snap
		}
	}
	c.mu.Unlock()
	gs, err := lsh.NewGroupSnapshot(snaps)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %v: %w", err, ErrShardProtocol)
	}
	return gs, nil
}

// N returns the total vector count across shards (including every
// acknowledged Insert).
func (c *RemoteCollection) N() (int, error) {
	gs, err := c.capture()
	if err != nil {
		return 0, err
	}
	return gs.N(), nil
}

// Version returns the summed per-shard publish version, as
// ShardedCollection.Version does. For the vector itself see ShardVersions.
func (c *RemoteCollection) Version() (uint64, error) {
	gs, err := c.capture()
	if err != nil {
		return 0, err
	}
	return versionSum(gs), nil
}

// ShardVersions returns the per-shard publish versions of the latest
// captured shard-snapshot vector.
func (c *RemoteCollection) ShardVersions() ([]uint64, error) {
	gs, err := c.capture()
	if err != nil {
		return nil, err
	}
	return gs.Versions(), nil
}

// IndexBytes estimates the total LSH index size across shards using the
// paper's §6.3 accounting.
func (c *RemoteCollection) IndexBytes() (int64, error) {
	gs, err := c.capture()
	if err != nil {
		return 0, err
	}
	return gs.SizeBytes(), nil
}

// PairsSharingBucket returns the merged N_H of table 0 — per-shard intra
// counts plus cross-shard bipartite counts, exactly the N_H a single index
// over the union corpus would maintain.
func (c *RemoteCollection) PairsSharingBucket() (int64, error) {
	gs, err := c.capture()
	if err != nil {
		return 0, err
	}
	return pairsSharingBucket(gs)
}

// Vector returns the vector with the given id (as returned by Insert).
func (c *RemoteCollection) Vector(id int) (Vector, error) {
	gs, err := c.capture()
	if err != nil {
		return Vector{}, err
	}
	s, local := lsh.SplitGroupID(int64(id))
	if s < 0 || s >= gs.S() || local < 0 || local >= gs.Snap(s).N() {
		return Vector{}, fmt.Errorf("lshjoin: no vector with id %d", id)
	}
	return gs.Snap(s).Data()[local], nil
}

// Insert routes v to its home shard — the same pure content-key routing an
// in-process ShardedCollection uses — and streams it there, returning the
// shard-encoded vector id. Inserts are not replayed after transient
// failures that may have reached the server; on error the caller knows the
// insert may or may not have been applied.
func (c *RemoteCollection) Insert(v Vector) (int, error) {
	s := lsh.RouteVector(v, len(c.clients))
	first, err := c.ingest(s, []Vector{v})
	if err != nil {
		return 0, err
	}
	return int(lsh.GroupID(s, first)), nil
}

// InsertBatch routes each vector to its home shard, streams the per-shard
// runs, and returns per-vector ids aligned with vs — the id assignment an
// in-process ShardedCollection.InsertBatch makes for the same vectors.
func (c *RemoteCollection) InsertBatch(vs []Vector) ([]int, error) {
	if len(vs) == 0 {
		return nil, nil // shard servers reject empty ingest batches
	}
	ids64, err := lsh.InsertRouted(vs, len(c.clients), c.ingest)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(ids64))
	for i, id := range ids64 {
		ids[i] = int(id)
	}
	return ids, nil
}

// ingest streams one run of vectors to shard s and returns the first local
// id the shard assigned.
func (c *RemoteCollection) ingest(s int, run []Vector) (int, error) {
	first, _, err := c.clients[s].Ingest(run)
	if err != nil {
		return 0, fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.clients[s].Addr(), err)
	}
	return first, nil
}

// SearchSimilar returns ids of indexed vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v, searching every shard's fetched snapshot.
// Results use shard-encoded ids in shard order, identical to
// ShardedCollection.SearchSimilar over the same data.
func (c *RemoteCollection) SearchSimilar(v Vector, tau float64) ([]int, error) {
	gs, err := c.capture()
	if err != nil {
		return nil, err
	}
	return search(gs, v, tau), nil
}

// VerifyShardSampling cross-checks the reconstruction of shard s: it draws
// draws weighted pairs from table t on the server and the same draws from
// the locally reconstructed snapshot with one shared seed, and reports any
// disagreement as ErrShardProtocol. Agreement is exactly the restore
// draw-for-draw guarantee, observed end to end over the wire. The check
// retries once if the shard publishes between the fetch and the sample.
func (c *RemoteCollection) VerifyShardSampling(s, t, draws int, seed uint64) error {
	if s < 0 || s >= len(c.clients) {
		return fmt.Errorf("lshjoin: shard %d out of range [0, %d)", s, len(c.clients))
	}
	for attempt := 0; ; attempt++ {
		gs, err := c.capture()
		if err != nil {
			return err
		}
		if t < 0 || t >= gs.L() {
			return fmt.Errorf("lshjoin: table %d out of range [0, %d)", t, gs.L())
		}
		snap := gs.Snap(s)
		version, pairs, err := c.clients[s].SampleBatch(t, draws, seed)
		if err != nil {
			return fmt.Errorf("lshjoin: shard %d (%s): %w", s, c.clients[s].Addr(), err)
		}
		if version != snap.Version() {
			if attempt == 0 {
				continue // the shard published between the two calls; refetch
			}
			return fmt.Errorf("lshjoin: shard %d keeps publishing during verification (snapshot v%d, sample v%d)", s, snap.Version(), version)
		}
		rng := xrand.New(seed)
		tab := snap.Table(t)
		for d := 0; d < draws; d++ {
			i, j, ok := tab.SamplePair(rng)
			if !ok {
				if d != len(pairs) {
					return fmt.Errorf("lshjoin: shard %d table %d: local stream ends at draw %d, server sent %d pairs: %w", s, t, d, len(pairs), ErrShardProtocol)
				}
				return nil
			}
			if d >= len(pairs) || int32(i) != pairs[d][0] || int32(j) != pairs[d][1] {
				return fmt.Errorf("lshjoin: shard %d table %d draw %d: local (%d, %d) disagrees with server: %w", s, t, d, i, j, ErrShardProtocol)
			}
		}
		if len(pairs) != draws {
			return fmt.Errorf("lshjoin: shard %d table %d: server sent %d pairs for %d draws: %w", s, t, len(pairs), draws, ErrShardProtocol)
		}
		return nil
	}
}
