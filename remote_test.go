package lshjoin

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"lshjoin/internal/shardrpc"
)

// startShardServers spins up S in-memory shard servers on loopback sharing
// one hashing identity and returns their addresses.
func startShardServers(t *testing.T, S int, opt Options) []string {
	t.Helper()
	addrs := make([]string, S)
	for s := range addrs {
		_, addrs[s], _ = serveShard(t, "127.0.0.1:0", opt)
	}
	return addrs
}

// serveShard runs a shard server on addr ("127.0.0.1:0" picks a port) and
// returns it, its address and a stop function. Stopping is idempotent, and
// the test's cleanup stops the server too.
func serveShard(t *testing.T, addr string, opt Options) (*ShardServer, string, func()) {
	t.Helper()
	srv, err := NewShardServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("close shard server: %v", err)
			}
			if err := <-errc; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, ln.Addr().String(), stop
}

// fastRemote keeps degradation tests quick: short timeouts, no retries.
func fastRemote() []RemoteOption {
	return []RemoteOption{
		WithDialTimeout(2 * time.Second),
		WithCallTimeout(300 * time.Millisecond),
		WithRetryPolicy(0, time.Millisecond),
	}
}

// The distributed draw-for-draw property, end to end over the wire: a
// RemoteCollection over S shard servers answers bit-equal to an in-process
// ShardedCollection with the same options and vectors — ids, every
// algorithm's seeded estimates, the unseeded seed stream, curves, searches
// and exact joins — at S = 1 and S = 4, for both measures. Publish versions
// are NOT compared: a Build-constructed shard sits at version 1 where an
// ingest-loaded one sits at 2, and estimates are content-determined either
// way.
func TestRemoteMatchesShardedDrawForDraw(t *testing.T) {
	for _, S := range []int{1, 4} {
		for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
			t.Run(fmt.Sprintf("s=%d measure=%d", S, measure), func(t *testing.T) {
				vecs := fixtureVectors(t, 460)
				opt := Options{K: 6, Tables: 3, Seed: 5, Measure: measure}
				addrs := startShardServers(t, S, opt)
				rem, err := Connect(addrs, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer rem.Close()
				sopt := opt
				sopt.Shards = S
				shrd, err := NewSharded(vecs[:400], sopt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rem.InsertBatch(vecs[:400]); err != nil {
					t.Fatal(err)
				}
				for i := 400; i < 440; i++ {
					a := shrd.Insert(vecs[i])
					b, err := rem.Insert(vecs[i])
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("insert %d: id %d vs %d", i, a, b)
					}
					if rem.ShardOf(b) != shrd.ShardOf(a) {
						t.Fatalf("insert %d: shard %d vs %d", i, rem.ShardOf(b), shrd.ShardOf(a))
					}
				}
				ca := shrd.InsertBatch(vecs[440:])
				cb, err := rem.InsertBatch(vecs[440:])
				if err != nil {
					t.Fatal(err)
				}
				for i := range ca {
					if ca[i] != cb[i] {
						t.Fatalf("batch id %d: %d vs %d", i, ca[i], cb[i])
					}
				}
				n, err := rem.N()
				if err != nil {
					t.Fatal(err)
				}
				if n != shrd.N() {
					t.Fatalf("N %d vs %d", n, shrd.N())
				}
				nh, err := rem.PairsSharingBucket()
				if err != nil {
					t.Fatal(err)
				}
				if nh != shrd.PairsSharingBucket() {
					t.Fatalf("N_H %d vs %d", nh, shrd.PairsSharingBucket())
				}
				ib, err := rem.IndexBytes()
				if err != nil {
					t.Fatal(err)
				}
				if ib != shrd.IndexBytes() {
					t.Fatalf("IndexBytes %d vs %d", ib, shrd.IndexBytes())
				}
				for _, algo := range Algorithms() {
					for _, tau := range []float64{0.6, 0.9} {
						ea, err := shrd.Estimator(algo, WithEstimatorSeed(41))
						if err != nil {
							t.Fatalf("%s: %v", algo, err)
						}
						eb, err := rem.Estimator(algo, WithEstimatorSeed(41))
						if err != nil {
							t.Fatalf("%s remote: %v", algo, err)
						}
						va, err := ea.Estimate(tau)
						if err != nil {
							t.Fatalf("%s: %v", algo, err)
						}
						vb, err := eb.Estimate(tau)
						if err != nil {
							t.Fatalf("%s remote: %v", algo, err)
						}
						if va != vb {
							t.Fatalf("%s tau=%v: %v vs %v", algo, tau, va, vb)
						}
					}
				}
				// The unseeded seed streams align too: the curve call consumes
				// draw 1 on each side, the estimator after it draw 2.
				taus := []float64{0.5, 0.7, 0.9}
				curveA, err := shrd.EstimateJoinSizeCurve(taus)
				if err != nil {
					t.Fatal(err)
				}
				curveB, err := rem.EstimateJoinSizeCurve(taus)
				if err != nil {
					t.Fatal(err)
				}
				for i := range taus {
					if curveA[i] != curveB[i] {
						t.Fatalf("curve[%d]: %v vs %v", i, curveA[i], curveB[i])
					}
				}
				ea, err := shrd.Estimator(AlgoLSHSS)
				if err != nil {
					t.Fatal(err)
				}
				eb, err := rem.Estimator(AlgoLSHSS)
				if err != nil {
					t.Fatal(err)
				}
				va, err := ea.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				vb, err := eb.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Fatalf("unseeded LSH-SS: %v vs %v", va, vb)
				}
				xa, err := shrd.ExactJoinSize(0.8)
				if err != nil {
					t.Fatal(err)
				}
				xb, err := rem.ExactJoinSize(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if xa != xb {
					t.Fatalf("exact join %d vs %d", xa, xb)
				}
				for _, q := range []int{0, 17, 399} {
					sa := shrd.SearchSimilar(vecs[q], 0.7)
					sb, err := rem.SearchSimilar(vecs[q], 0.7)
					if err != nil {
						t.Fatal(err)
					}
					if len(sa) != len(sb) {
						t.Fatalf("search %d: %d vs %d results", q, len(sa), len(sb))
					}
					for i := range sa {
						if sa[i] != sb[i] {
							t.Fatalf("search %d result %d: %d vs %d", q, i, sa[i], sb[i])
						}
					}
					v, err := rem.Vector(ca[0])
					if err != nil {
						t.Fatal(err)
					}
					if v.String() != shrd.Vector(ca[0]).String() {
						t.Fatalf("Vector(%d) differs", ca[0])
					}
				}
				// Server-side sampling reproduces the locally reconstructed
				// stream draw for draw — the restore property observed over
				// the wire.
				for s := 0; s < S; s++ {
					if err := rem.VerifyShardSampling(s, 0, 50, 1234); err != nil {
						t.Fatal(err)
					}
				}
				// Shard versions advanced past the cache: the refetch path
				// (not-modified misses) must keep answering equally.
				shrd.InsertBatch(vecs[:30])
				if _, err := rem.InsertBatch(vecs[:30]); err != nil {
					t.Fatal(err)
				}
				ea, err = shrd.Estimator(AlgoLSHSS, WithEstimatorSeed(97))
				if err != nil {
					t.Fatal(err)
				}
				eb, err = rem.Estimator(AlgoLSHSS, WithEstimatorSeed(97))
				if err != nil {
					t.Fatal(err)
				}
				va, err = ea.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				vb, err = eb.Estimate(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Fatalf("post-growth LSH-SS: %v vs %v", va, vb)
				}
			})
		}
	}
}

func TestConnectValidation(t *testing.T) {
	addrs := startShardServers(t, 2, Options{K: 6, Tables: 3, Seed: 5})
	if _, err := Connect(nil, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("no addresses: %v", err)
	}
	if _, err := Connect(addrs, Options{Dir: t.TempDir()}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Dir accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Shards: 3}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("shard-count mismatch accepted: %v", err)
	}
	// Assertions against the servers' identity.
	if _, err := Connect(addrs, Options{K: 9}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong K accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Seed: 11}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong Seed accepted: %v", err)
	}
	if _, err := Connect(addrs, Options{Measure: JaccardSimilarity}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("wrong Measure accepted: %v", err)
	}
	// Zero fields adopt the served identity.
	rem, err := Connect(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if rem.K() != 6 || rem.Tables() != 3 || rem.Shards() != 2 {
		t.Fatalf("adopted K=%d Tables=%d Shards=%d", rem.K(), rem.Tables(), rem.Shards())
	}
	// Servers disagreeing among themselves are rejected, naming the shard.
	other := startShardServers(t, 1, Options{K: 6, Tables: 3, Seed: 99})
	if _, err := Connect([]string{addrs[0], other[0]}, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("mixed identities accepted: %v", err)
	}
}

// misbehavingShard proxies requests to a real shard server frame by frame,
// sabotaging every snapshot fetch per mode — so degradation is observed
// through the public Connect/estimate path, not by poking internals.
func misbehavingShard(t *testing.T, backendAddr, mode string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				backend, err := net.Dial("tcp", backendAddr)
				if err != nil {
					return
				}
				defer backend.Close()
				for {
					typ, payload, err := shardrpc.ReadFrame(conn)
					if err != nil {
						return
					}
					if typ != shardrpc.TSnapshot { // handshake, ingest: relay faithfully
						if err := shardrpc.WriteFrame(backend, typ, payload); err != nil {
							return
						}
						rtyp, resp, err := shardrpc.ReadFrame(backend)
						if err != nil {
							return
						}
						if err := shardrpc.WriteFrame(conn, rtyp, resp); err != nil {
							return
						}
						continue
					}
					switch mode {
					case "mute": // swallow the request; let the client time out
						continue
					case "corrupt": // answer with a CRC-flipped frame
						if err := shardrpc.WriteFrame(backend, typ, payload); err != nil {
							return
						}
						rtyp, resp, err := shardrpc.ReadFrame(backend)
						if err != nil {
							return
						}
						frame := shardrpc.AppendFrame(nil, rtyp, resp)
						frame[len(frame)-2] ^= 0x40
						conn.Write(frame)
						return
					case "short": // half a frame, then hang up
						frame := shardrpc.AppendFrame(nil, typ, payload)
						conn.Write(frame[:len(frame)/2])
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// One misbehaving shard fails the whole read with the right typed error —
// bounded by the call timeout, never a hang, never a partial estimate over
// the healthy shards.
func TestRemoteDegradation(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5}
	backends := startShardServers(t, 2, opt)
	cases := []struct {
		mode string
		want error
	}{
		{"mute", ErrShardUnavailable},
		{"corrupt", ErrShardProtocol},
		{"short", ErrShardUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			bad := misbehavingShard(t, backends[1], tc.mode)
			rem, err := Connect([]string{backends[0], bad}, opt, fastRemote()...)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()
			if _, err := rem.InsertBatch(fixtureVectors(t, 16)); err != nil {
				t.Fatal(err) // ingest itself relays fine in every mode
			}
			start := time.Now()
			v, err := rem.EstimateJoinSize(0.8)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("degraded estimate took %v", elapsed)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if v != 0 {
				t.Fatalf("partial estimate %v served alongside the error", v)
			}
			if _, err := rem.N(); !errors.Is(err, tc.want) {
				t.Fatalf("N error = %v, want %v", err, tc.want)
			}
		})
	}
}

// A durable shard server persists network ingest across restarts: close,
// reopen on the same directory, and the coordinator sees the same corpus.
func TestShardServerDurable(t *testing.T) {
	dir := t.TempDir()
	opt := Options{K: 6, Tables: 2, Seed: 5, Dir: dir}
	vecs := fixtureVectors(t, 64)

	run := func(load bool) int {
		srv, err := NewShardServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		rem, err := Connect([]string{ln.Addr().String()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if load {
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
		}
		n, err := rem.N()
		if err != nil {
			t.Fatal(err)
		}
		rem.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := run(true); n != len(vecs) {
		t.Fatalf("first run N = %d, want %d", n, len(vecs))
	}
	if n := run(false); n != len(vecs) {
		t.Fatalf("recovered N = %d, want %d", n, len(vecs))
	}
}

func TestNewShardServerValidation(t *testing.T) {
	if _, err := NewShardServer(Options{Shards: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Shards=2 accepted: %v", err)
	}
	// Reopening asserts against the stored identity.
	dir := t.TempDir()
	srv, err := NewShardServer(Options{K: 6, Seed: 5, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardServer(Options{K: 9, Dir: dir}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("conflicting K accepted on reopen: %v", err)
	}
}

// A vector on the top dimension 2³²−1 travels the batch signing path of a
// shard server's ingest handler. For both measures the batch must be
// accepted, the server must keep answering, and search must find the vector.
func TestRemoteInsertBatchTopDimension(t *testing.T) {
	top := BinaryVector([]uint32{3, math.MaxUint32})
	for _, m := range []Measure{CosineSimilarity, JaccardSimilarity} {
		opt := Options{K: 6, Tables: 2, Seed: 5, Measure: m}
		rem, err := Connect(startShardServers(t, 1, opt), opt, fastRemote()...)
		if err != nil {
			t.Fatal(err)
		}
		defer rem.Close()
		ids, err := rem.InsertBatch([]Vector{top})
		if err != nil {
			t.Fatalf("measure %d: InsertBatch: %v", m, err)
		}
		if n, err := rem.N(); err != nil || n != 1 {
			t.Fatalf("measure %d: N = %d, %v after the batch; want 1, nil", m, n, err)
		}
		got, err := rem.SearchSimilar(top, 0.99)
		if err != nil {
			t.Fatalf("measure %d: SearchSimilar: %v", m, err)
		}
		if !slices.Contains(got, ids[0]) {
			t.Fatalf("measure %d: SearchSimilar = %v, want it to contain %d", m, got, ids[0])
		}
	}
}
