package lshjoin

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
)

// ShardServer owns one shard of a distributed collection — a single LSH
// index, optionally durable via Options.Dir — and serves it over the wire
// protocol (see DESIGN.md): streamed ingest, snapshot fetches that send a
// coordinator only what its replica lacks, summary digests and server-side
// sample batches.
// Point a RemoteCollection at S shard servers sharing one hashing identity
// and its estimates are bit-equal to an in-process ShardedCollection over
// the same vectors.
//
// With Options.Dir set, the server creates a crash-safe store there (or
// recovers the existing one under the usual adopt-or-assert option rules),
// and every version published while serving persists through the store's
// write hook — network serving and durability compose with no extra code.
type ShardServer struct {
	opt    Options
	idx    *lsh.Index
	store  *persist.Store // nil for in-memory servers
	srv    *shardrpc.Server
	closed atomic.Bool
}

// NewShardServer builds the server owning one empty (or recovered) shard.
// Options follow New/Open: with Dir unset, K/Tables/Seed/Measure configure a
// fresh in-memory index; with Dir set, an existing store is recovered
// (adopt-or-assert on the hashing fields) or a fresh one created.
// Shards, if set, must be 1 — one server owns one shard; run S processes
// for S shards. Call Serve to accept connections.
func NewShardServer(opt Options) (*ShardServer, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("%w: Shards = %d, but a shard server owns exactly one shard (run one server per shard)", ErrInvalidOptions, opt.Shards)
	}
	s := &ShardServer{}
	if opt.Dir != "" {
		opt, err := opt.validated()
		if err != nil {
			return nil, err
		}
		opt, idx, store, err := openPlain(opt)
		switch {
		case err == nil:
			s.opt, s.idx, s.store = opt, idx, store
		case errors.Is(err, ErrNoStore): // a fresh store is created below
		default:
			return nil, err
		}
	}
	if s.idx == nil {
		opt, err := opt.normalized()
		if err != nil {
			return nil, err
		}
		family, _ := familyFor(opt)
		idx, err := lsh.NewEmptyIndex(family, opt.K, opt.Tables)
		if err != nil {
			return nil, fmt.Errorf("lshjoin: %w", err)
		}
		s.opt, s.idx = opt, idx
		if opt.Dir != "" {
			if s.store, err = persist.Create(faultfs.OS{}, opt.Dir, idx); err != nil {
				return nil, fmt.Errorf("lshjoin: %w", err)
			}
			applyStorePolicy(opt, s.store)
		}
	}
	s.srv = shardrpc.NewServer(s.idx, shardrpc.ServerOptions{PublishEvery: s.opt.PublishEvery})
	return s, nil
}

// Serve accepts connections on ln until Close, blocking; it returns nil
// after Close, or the first accept error. Run it on its own goroutine.
func (s *ShardServer) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops serving, waits for in-flight requests to drain, and — for a
// durable server — publishes pending ingest, checkpoints, and releases the
// store (returning its sticky error, like Collection.Close). Idempotent.
func (s *ShardServer) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Close()
	if s.store != nil {
		if cerr := closeStores([]*lsh.Index{s.idx}, []*persist.Store{s.store}, nil); cerr != nil {
			return cerr
		}
	}
	return err
}

// InsertBatch bulk-loads vectors locally — no network round trip — for the
// process that owns the shard, returning the first assigned local id. The
// coordinator-side routing contract still applies: load a vector only into
// the shard lsh.RouteVector assigns it to, or coordinated ids will not
// match the in-process collection's.
func (s *ShardServer) InsertBatch(vs []Vector) int {
	first := s.idx.InsertBatch(vs)
	s.idx.MaybePublish(s.opt.PublishEvery)
	return first
}

// N returns the shard's vector count, pending ingest included once
// published (this publishes, like any read on a Collection).
func (s *ShardServer) N() int { return s.idx.Snapshot().N() }

// K returns the per-table hash function count.
func (s *ShardServer) K() int { return s.opt.K }

// Tables returns the number of LSH tables ℓ.
func (s *ShardServer) Tables() int { return s.opt.Tables }
