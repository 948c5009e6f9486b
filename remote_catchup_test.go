package lshjoin

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// retryingRemote lets a coordinator reconnect to a restarted server.
func retryingRemote() []RemoteOption {
	return []RemoteOption{WithCallTimeout(2 * time.Second), WithRetryPolicy(3, 10*time.Millisecond)}
}

// seededLSHSS is one reproducible LSH-SS estimate at τ = 0.8.
func seededLSHSS(t *testing.T, src interface {
	Estimator(Algorithm, ...EstimatorOption) (Estimator, error)
}, seed uint64) float64 {
	t.Helper()
	e, err := src.Estimator(AlgoLSHSS, WithEstimatorSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Estimate(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Small ingests interleaved with reads: after the first full fetch every
// changed shard catches up by its new vectors, and every read still equals
// the in-process sharded collection's — N, N_H and seeded estimates — with
// the servers' sample streams reproduced by the caught-up replicas.
func TestRemoteCatchUpMatchesSharded(t *testing.T) {
	for _, S := range []int{1, 3} {
		t.Run(fmt.Sprintf("s=%d", S), func(t *testing.T) {
			vecs := fixtureVectors(t, 400)
			opt := Options{K: 6, Tables: 2, Seed: 5}
			rem, err := Connect(startShardServers(t, S, opt), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()
			sopt := opt
			sopt.Shards = S
			shrd, err := NewSharded(vecs[:200], sopt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rem.InsertBatch(vecs[:200]); err != nil {
				t.Fatal(err)
			}
			for step, lo := 0, 200; lo < len(vecs); step, lo = step+1, lo+8 {
				shrd.InsertBatch(vecs[lo : lo+8])
				if _, err := rem.InsertBatch(vecs[lo : lo+8]); err != nil {
					t.Fatal(err)
				}
				if n, err := rem.N(); err != nil || n != shrd.N() {
					t.Fatalf("step %d: N = %d, %v; in process %d", step, n, err, shrd.N())
				}
				if nh, err := rem.PairsSharingBucket(); err != nil || nh != shrd.PairsSharingBucket() {
					t.Fatalf("step %d: N_H = %d, %v; in process %d", step, nh, err, shrd.PairsSharingBucket())
				}
				seed := uint64(100 + step)
				if a, b := seededLSHSS(t, shrd, seed), seededLSHSS(t, rem, seed); a != b {
					t.Fatalf("step %d: LSH-SS %v, in process %v", step, b, a)
				}
				if step%5 == 4 {
					for s := 0; s < S; s++ {
						if err := rem.VerifyShardSampling(s, 1, 40, seed); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
			}
			if rem.deltas.Load() == 0 {
				t.Fatal("no read caught up by a delta")
			}
		})
	}
}

// Readers capturing concurrently with a writer: each shard's replica moves
// forward only, every delta lands once on the base it was asked for, and
// the final state equals a fresh coordinator's and the in-process one's.
// CI runs the package under -race.
func TestRemoteConcurrentCatchUp(t *testing.T) {
	const S = 3
	vecs := fixtureVectors(t, 500)
	opt := Options{K: 6, Tables: 2, Seed: 5}
	addrs := startShardServers(t, S, opt)
	rem, err := Connect(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if _, err := rem.InsertBatch(vecs[:200]); err != nil {
		t.Fatal(err)
	}
	if _, err := rem.N(); err != nil { // every later read has a base to extend
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for lo := 200; lo < len(vecs); lo += 10 {
			if _, err := rem.InsertBatch(vecs[lo : lo+10]); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev []uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				vers, err := rem.ShardVersions()
				if err != nil {
					errs <- err
					return
				}
				for s := range prev {
					if vers[s] < prev[s] {
						errs <- fmt.Errorf("shard %d went back from version %d to %d", s, prev[s], vers[s])
						return
					}
				}
				prev = vers
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fresh, err := Connect(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	sopt := opt
	sopt.Shards = S
	shrd, err := NewSharded(vecs, sopt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*RemoteCollection{rem, fresh} {
		if n, err := c.N(); err != nil || n != len(vecs) {
			t.Fatalf("N = %d, %v; want %d", n, err, len(vecs))
		}
		if nh, err := c.PairsSharingBucket(); err != nil || nh != shrd.PairsSharingBucket() {
			t.Fatalf("N_H = %d, %v; in process %d", nh, err, shrd.PairsSharingBucket())
		}
		if a, b := seededLSHSS(t, shrd, 9), seededLSHSS(t, c, 9); a != b {
			t.Fatalf("LSH-SS %v, in process %v", b, a)
		}
	}
	for s := 0; s < S; s++ {
		if err := rem.VerifyShardSampling(s, 0, 60, 77); err != nil {
			t.Fatal(err)
		}
	}
	if rem.deltas.Load() == 0 {
		t.Fatal("no read caught up by a delta")
	}
}

// An in-memory shard server restarted on the same address comes back empty.
// The coordinator tells the new process by its incarnation, not by its
// version: it fails every read with ErrShardProtocol while the shard holds
// fewer vectors than were already read from it, keeping its replica, and
// adopts the new state once the shard holds as many again. A fresh Connect
// accepts the new state at once.
func TestRemoteRestartedShardFailsTyped(t *testing.T) {
	vecs := fixtureVectors(t, 64)
	opt := Options{K: 6, Tables: 2, Seed: 5}
	for _, reloaded := range []int{0, 10, 64} {
		t.Run(fmt.Sprintf("reloaded=%d", reloaded), func(t *testing.T) {
			_, addr, stop := serveShard(t, "127.0.0.1:0", opt)
			rem, err := Connect([]string{addr}, opt, retryingRemote()...)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
			if n, err := rem.N(); err != nil || n != len(vecs) {
				t.Fatalf("N = %d, %v before the restart", n, err)
			}
			stop()
			srv, _, _ := serveShard(t, addr, opt)
			if reloaded > 0 {
				srv.InsertBatch(vecs[:reloaded])
			}
			n, err := rem.N()
			if reloaded >= len(vecs) {
				if err != nil || n != reloaded {
					t.Fatalf("N = %d, %v after a restart at %d vectors; want it adopted", n, err, reloaded)
				}
				return
			}
			if !errors.Is(err, ErrShardProtocol) {
				t.Fatalf("N = %d, %v after a restart at %d vectors; want ErrShardProtocol", n, err, reloaded)
			}
			if _, err := rem.EstimateJoinSize(0.8); !errors.Is(err, ErrShardProtocol) {
				t.Fatalf("second read after the restart: %v, want ErrShardProtocol", err)
			}
			if got := rem.shards[0].idx.Current().N(); got != len(vecs) {
				t.Fatalf("the refused read left a replica of %d vectors, want %d", got, len(vecs))
			}
			fresh, err := Connect([]string{addr}, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if n, err := fresh.N(); err != nil || n != reloaded {
				t.Fatalf("fresh coordinator N = %d, %v; want %d", n, err, reloaded)
			}
		})
	}
}

// A durable shard server reopened on the same directory is a new
// incarnation holding the same vectors: the coordinator that read the old
// process adopts the new one's full snapshot and answers as before.
func TestRemoteDurableShardRestart(t *testing.T) {
	opt := Options{K: 6, Tables: 2, Seed: 5, Dir: t.TempDir()}
	vecs := fixtureVectors(t, 64)
	_, addr, stop := serveShard(t, "127.0.0.1:0", opt)
	rem, err := Connect([]string{addr}, Options{}, retryingRemote()...)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if _, err := rem.InsertBatch(vecs); err != nil {
		t.Fatal(err)
	}
	read := func() (int, []float64) {
		n, err := rem.N()
		if err != nil {
			t.Fatal(err)
		}
		return n, []float64{seededLSHSS(t, rem, 3), seededLSHSS(t, rem, 4)}
	}
	n0, est0 := read()
	inc0 := rem.shards[0].inc
	stop()
	serveShard(t, addr, opt)
	n1, est1 := read()
	if n1 != n0 || n0 != len(vecs) || !slices.Equal(est1, est0) {
		t.Fatalf("after reopening: N %d, estimates %v; before: N %d, estimates %v", n1, est1, n0, est0)
	}
	if rem.shards[0].inc == inc0 {
		t.Fatal("the coordinator still mirrors the closed server's incarnation")
	}
}
