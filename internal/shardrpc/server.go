package shardrpc

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/xrand"
)

// ServerOptions tunes one shard server.
type ServerOptions struct {
	// PublishEvery, when > 0, publishes a fresh snapshot version as soon as
	// the pending ingest delta reaches that many vectors — the same policy
	// as the public Options.PublishEvery. 0 publishes on demand: Snapshot,
	// Stats and Sample requests always publish pending ingest first, so
	// estimates made from fetched state observe every acknowledged ingest.
	PublishEvery int
	// IdleTimeout, when > 0, closes connections that send no request for
	// that long. 0 keeps idle connections open until Close.
	IdleTimeout time.Duration
}

// Server owns one lsh.Index — one shard of a distributed collection — and
// serves the protocol over a listener: streamed ingest, snapshot fetches
// that send a client only what its base lacks (nothing, the new vectors, or
// the full blob), summaries and server-side sample batches.
//
// Concurrency: each connection is handled by its own goroutine, and all of
// them share the index through its usual write-lock/atomic-snapshot
// discipline, so concurrent ingest and snapshot requests interleave exactly
// like concurrent Insert and capture calls on an in-process collection.
// Durability is orthogonal: attach a persist.Store write hook to the index
// (as the public ShardServer does via Options.Dir) and every published
// version persists with no involvement from this package.
type Server struct {
	idx *lsh.Index
	opt ServerOptions
	inc uint64 // this server's incarnation: random, nonzero, drawn once

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Snapshot responses are cached per published version: snapshots are
	// immutable, so the encoding is too, and every connection fetching the
	// same version reuses one buffer.
	blobMu  sync.Mutex
	blobVer uint64
	blob    []byte
}

// NewServer wraps an index (typically lsh.NewEmptyIndex, or a recovered
// durable one) as a shard server. Call Serve to accept connections.
func NewServer(idx *lsh.Index, opt ServerOptions) *Server {
	return &Server{idx: idx, opt: opt, inc: newIncarnation(), conns: make(map[net.Conn]struct{})}
}

// newIncarnation draws a random nonzero 64-bit server incarnation.
func newIncarnation() uint64 {
	var b [8]byte
	for {
		rand.Read(b[:]) // never fails on supported platforms
		if inc := binary.LittleEndian.Uint64(b[:]); inc != 0 {
			return inc
		}
	}
}

// Index returns the served index, for the process that owns the server
// (local preloading, checkpointing on shutdown).
func (s *Server) Index() *lsh.Index { return s.idx }

// Serve accepts connections on ln until Close, serving each on its own
// goroutine. It returns nil after Close, or the first accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("shardrpc: server is closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("shardrpc: server is already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("shardrpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops accepting, closes every live connection, and waits for the
// per-connection goroutines to drain. The index itself stays usable — the
// owner may still checkpoint or close its store.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	for {
		if s.opt.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout))
		}
		typ, payload, err := readFrame(br, maxRequestPayload)
		if err != nil {
			// EOF, a closed connection, an idle timeout, garbage framing or
			// a header naming more payload than its request type can hold:
			// nothing sensible can be answered on this byte stream either
			// way, so just drop it. Request-level errors (a well-framed but
			// bad payload) are answered with Err below instead.
			return
		}
		rtyp, resp := s.handle(typ, payload)
		if err := WriteFrame(conn, rtyp, resp); err != nil {
			return
		}
	}
}

// handle serves one request frame and returns the response frame.
func (s *Server) handle(typ uint32, payload []byte) (uint32, []byte) {
	switch typ {
	case THello:
		pv, err := decodeHelloReq(payload)
		if err != nil {
			return TErr, encodeErrResp(CodeBadRequest, err.Error())
		}
		if pv != protoVersion {
			return TErr, encodeErrResp(CodeUnsupported,
				fmt.Sprintf("protocol version %d not supported (server speaks %d)", pv, protoVersion))
		}
		snap := s.idx.Current()
		spec, err := lsh.SpecOf(snap.Family())
		if err != nil {
			return TErr, encodeErrResp(CodeInternal, err.Error())
		}
		return THelloOK, encodeHelloResp(Hello{
			Family: spec, K: snap.K(), Ell: snap.L(),
			Version: snap.Version(), N: snap.N(),
		})

	case TIngest:
		vs, err := persist.DecodeVectors(payload)
		if err != nil {
			return TErr, encodeErrResp(CodeBadRequest, err.Error())
		}
		if len(vs) == 0 {
			return TErr, encodeErrResp(CodeBadRequest, "empty ingest batch")
		}
		first := s.idx.InsertBatch(vs)
		s.idx.MaybePublish(s.opt.PublishEvery)
		return TIngestOK, encodeIngestResp(first, len(vs))

	case TPublish:
		return TPublishOK, encodeVersion(s.idx.Snapshot().Version())

	case TSnapshot:
		base, err := decodeSnapshotReq(payload)
		if err != nil {
			return TErr, encodeErrResp(CodeBadRequest, err.Error())
		}
		snap := s.idx.Snapshot()
		if base.Incarnation == s.inc {
			// The base is this incarnation's, so its vectors are a prefix
			// of snap's: vectors only ever append within one incarnation.
			switch {
			case base.Version == snap.Version():
				return TNotModified, encodeVersion(base.Version)
			case base.N > 0 && base.Version < snap.Version() && base.N < snap.N():
				return TSnapshotDelta, encodeDeltaResp(snap.Version(), base.N, snap.Data()[base.N:])
			}
		}
		blob, err := s.snapshotBlob(snap)
		if err != nil {
			return TErr, encodeErrResp(CodeInternal, err.Error())
		}
		return TSnapshotOK, encodeSnapshotResp(s.inc, snap.Version(), blob)

	case TStats:
		snap := s.idx.Snapshot()
		return TStatsOK, encodeStatsResp(snap.Version(), snap.Summary())

	case TSample:
		table, count, seed, err := decodeSampleReq(payload)
		if err != nil {
			return TErr, encodeErrResp(CodeBadRequest, err.Error())
		}
		snap := s.idx.Snapshot()
		if table >= snap.L() {
			return TErr, encodeErrResp(CodeBadRequest,
				fmt.Sprintf("table %d out of range (ℓ = %d)", table, snap.L()))
		}
		tab := snap.Table(table)
		rng := xrand.New(seed)
		pairs := make([][2]int32, 0, count)
		for d := 0; d < count; d++ {
			i, j, ok := tab.SamplePair(rng)
			if !ok {
				break
			}
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
		return TSampleOK, encodeSampleResp(snap.Version(), pairs)
	}
	return TErr, encodeErrResp(CodeBadRequest, fmt.Sprintf("unknown request type %d", typ))
}

// snapshotBlob returns the persist encoding of snap, reusing the cached
// buffer when the version has not moved.
func (s *Server) snapshotBlob(snap *lsh.Snapshot) ([]byte, error) {
	s.blobMu.Lock()
	defer s.blobMu.Unlock()
	if s.blob != nil && s.blobVer == snap.Version() {
		return s.blob, nil
	}
	blob, err := persist.EncodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	// Adopt forward only: concurrent fetches that raced a publish keep the
	// cache at the newest version they saw.
	if s.blob == nil || snap.Version() > s.blobVer {
		s.blob, s.blobVer = blob, snap.Version()
	}
	return blob, nil
}
