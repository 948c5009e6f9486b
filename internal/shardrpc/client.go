package shardrpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
)

// ClientOptions tunes one shard connection.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/response exchange, write and read
	// included (default 10s). A shard that does not answer within it is
	// treated as unavailable — calls never hang.
	CallTimeout time.Duration
	// Retries is how many times a transiently failed call is re-attempted
	// beyond the first try (default 2). Only idempotent requests — and
	// non-idempotent ones whose bytes never reached the wire — are retried;
	// an Ingest that may have been applied is never replayed.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms). Deterministic: no jitter, so tests are exact.
	Backoff time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// WithNoRetries disables transient retries (Retries would default to 2).
func (o ClientOptions) WithNoRetries() ClientOptions {
	o.Retries = -1
	return o
}

// Client is one connection to one shard server, reconnecting on demand
// after transient failures. Calls are serialized per client (the protocol
// is one-request-one-response per connection); a coordinator that wants
// parallel fan-out uses one Client per shard. Every returned error is
// typed: ErrUnavailable for transport failures and timeouts (after
// retries), ErrProtocol for malformed or mismatched responses, *ServerError
// for explicit server rejections.
type Client struct {
	addr string
	opt  ClientOptions

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	hello  Hello
	pinned bool

	snapInc atomic.Uint64 // the incarnation of Snapshot's last blob
}

// Dial connects to a shard server and performs the handshake, returning its
// identity alongside the client. The identity is pinned: if a reconnect
// after a transient failure reaches a server with a different hashing
// identity (family, k, ℓ), the call fails with ErrProtocol rather than
// silently mixing incompatible shards.
func Dial(addr string, opt ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opt: opt.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// Hello returns the server identity captured at the last successful
// handshake.
func (c *Client) Hello() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello
}

// Close closes the connection. The client must not be used afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br = nil, nil
	return err
}

func (c *Client) unavailable(err error) error {
	return fmt.Errorf("shardrpc: %s: %v: %w", c.addr, err, ErrUnavailable)
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// connectLocked dials and handshakes. Callers hold c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
	if err != nil {
		return c.unavailable(err)
	}
	conn.SetDeadline(time.Now().Add(c.opt.CallTimeout))
	br := bufio.NewReader(conn)
	if err := WriteFrame(conn, THello, encodeHelloReq()); err != nil {
		conn.Close()
		return c.unavailable(err)
	}
	rtyp, payload, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrProtocol) {
			return err
		}
		return c.unavailable(err)
	}
	switch rtyp {
	case THelloOK:
	case TErr:
		conn.Close()
		return decodeErrResp(payload)
	default:
		conn.Close()
		return pErr("shardrpc: handshake answered with type %d", rtyp)
	}
	h, err := decodeHelloResp(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if c.pinned && (h.Family != c.hello.Family || h.K != c.hello.K || h.Ell != c.hello.Ell) {
		conn.Close()
		return pErr("shardrpc: %s changed hashing identity across reconnect", c.addr)
	}
	conn.SetDeadline(time.Time{})
	c.conn, c.br = conn, br
	c.hello, c.pinned = h, true
	return nil
}

// call performs one request/response exchange, reconnecting and retrying
// transient failures per the client options. want lists the acceptable
// response types; TErr is always decoded into a *ServerError.
func (c *Client) call(typ uint32, payload []byte, idempotent bool, want ...uint32) (uint32, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.opt.Backoff << (attempt - 1))
		}
		if c.conn == nil {
			if err := c.connectLocked(); err != nil {
				lastErr = err
				if errors.Is(err, ErrUnavailable) {
					continue // nothing reached the wire; always retryable
				}
				return 0, nil, err // protocol violation or server rejection
			}
		}
		c.conn.SetDeadline(time.Now().Add(c.opt.CallTimeout))
		if err := WriteFrame(c.conn, typ, payload); err != nil {
			c.dropLocked()
			lastErr = c.unavailable(err)
			if !idempotent {
				break // bytes may have reached the server; do not replay
			}
			continue
		}
		rtyp, resp, err := ReadFrame(c.br)
		if err != nil {
			c.dropLocked()
			if errors.Is(err, ErrProtocol) {
				return 0, nil, err
			}
			lastErr = c.unavailable(err)
			if !idempotent {
				break
			}
			continue
		}
		c.conn.SetDeadline(time.Time{})
		if rtyp == TErr {
			return 0, nil, decodeErrResp(resp)
		}
		for _, w := range want {
			if rtyp == w {
				return rtyp, resp, nil
			}
		}
		c.dropLocked() // request/response pairing is broken on this stream
		return 0, nil, pErr("shardrpc: response type %d to request type %d", rtyp, typ)
	}
	return 0, nil, lastErr
}

// Ingest streams a vector batch to the shard, returning the first assigned
// local id and the count. Ingest is not idempotent: a transient failure
// after the request hit the wire surfaces as ErrUnavailable without a
// replay (the batch may or may not have been applied; the caller decides).
func (c *Client) Ingest(vs []vecmath.Vector) (first, count int, err error) {
	if len(vs) == 0 {
		return 0, 0, fmt.Errorf("shardrpc: empty ingest batch")
	}
	_, resp, err := c.call(TIngest, persist.EncodeVectors(vs), false, TIngestOK)
	if err != nil {
		return 0, 0, err
	}
	return decodeIngestResp(resp)
}

// Publish asks the shard to publish pending ingest and returns the
// resulting version. Idempotent.
func (c *Client) Publish() (uint64, error) {
	_, resp, err := c.call(TPublish, nil, true, TPublishOK)
	if err != nil {
		return 0, err
	}
	return decodeVersion(resp)
}

// Fetched is a shard's answer to Fetch: its current version and exactly
// one of Blob and Delta, or neither when the base is still current.
type Fetched struct {
	Version uint64
	// Blob is the full snapshot in the persist checkpoint encoding, sent by
	// server incarnation Incarnation; decode it with persist.DecodeSnapshot.
	Blob        []byte
	Incarnation uint64
	// Delta holds the vectors past the base's N, in id order, which bring
	// the base to Version (see lsh.Index.CatchUp).
	Delta []vecmath.Vector
}

// Fetch brings a base of the shard up to date, publishing pending ingest
// first. The shard answers with what the base lacks: nothing when it is
// current, its new vectors when the base came from the shard's running
// incarnation, and its full snapshot otherwise. Fetch checks that a
// not-modified or delta answer fits base; a delta must be applied to
// exactly that base.
func (c *Client) Fetch(base Base) (Fetched, error) {
	rtyp, resp, err := c.call(TSnapshot, encodeSnapshotReq(base), true, TSnapshotOK, TSnapshotDelta, TNotModified)
	if err != nil {
		return Fetched{}, err
	}
	switch rtyp {
	case TNotModified:
		v, err := decodeVersion(resp)
		if err != nil {
			return Fetched{}, err
		}
		if base.Incarnation == 0 || v != base.Version {
			return Fetched{}, pErr("shardrpc: not-modified at version %d for a base at version %d", v, base.Version)
		}
		return Fetched{Version: v}, nil
	case TSnapshotDelta:
		v, first, vs, err := decodeDeltaResp(resp)
		if err != nil {
			return Fetched{}, err
		}
		if base.Incarnation == 0 || first != base.N || v <= base.Version || len(vs) == 0 {
			return Fetched{}, pErr("shardrpc: delta of %d vectors from id %d at version %d does not extend the base (%d vectors at version %d)",
				len(vs), first, v, base.N, base.Version)
		}
		return Fetched{Version: v, Delta: vs}, nil
	}
	inc, v, blob, err := decodeSnapshotResp(resp)
	if err != nil {
		return Fetched{}, err
	}
	if inc == 0 || len(blob) == 0 {
		return Fetched{}, pErr("shardrpc: snapshot answer from incarnation %d with a %d-byte blob", inc, len(blob))
	}
	return Fetched{Version: v, Blob: blob, Incarnation: inc}, nil
}

// Snapshot fetches the shard's full snapshot blob, or reports notModified
// when the shard is still at version have. It names no base vectors, so
// the shard never answers it with a delta. have counts as current only on
// the server incarnation this client's Snapshot last returned a blob from,
// so a restarted server always sends its blob. Decode the blob with
// persist.DecodeSnapshot.
func (c *Client) Snapshot(have uint64) (version uint64, blob []byte, notModified bool, err error) {
	f, err := c.Fetch(Base{Incarnation: c.snapInc.Load(), Version: have})
	if err != nil {
		return 0, nil, false, err
	}
	if f.Blob == nil {
		return f.Version, nil, true, nil
	}
	c.snapInc.Store(f.Incarnation)
	return f.Version, f.Blob, false, nil
}

// Stats fetches the shard's cheap summary digest (version, n, per-table
// N_H) without shipping the snapshot.
func (c *Client) Stats() (lsh.SnapshotSummary, error) {
	_, resp, err := c.call(TStats, nil, true, TStatsOK)
	if err != nil {
		return lsh.SnapshotSummary{}, err
	}
	return decodeStatsResp(resp)
}

// SampleBatch draws count weighted bucket pairs from the shard's table on
// the server side, from the deterministic stream seeded by seed, returning
// the snapshot version sampled and the (i, j) local-id pairs. A client
// holding the same snapshot version draws the identical pairs locally from
// the same seed — the cross-check RemoteCollection.VerifyShardSampling
// performs.
func (c *Client) SampleBatch(table, count int, seed uint64) (uint64, [][2]int32, error) {
	if count < 0 {
		return 0, nil, fmt.Errorf("shardrpc: negative sample count")
	}
	_, resp, err := c.call(TSample, encodeSampleReq(table, count, seed), true, TSampleOK)
	if err != nil {
		return 0, nil, err
	}
	return decodeSampleResp(resp)
}
