package lsh

import (
	"fmt"
	"runtime"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Equivalence property suite for incremental snapshot publication: whatever
// randomized interleaving of Insert, InsertBatch and Snapshot produced a
// version, it must be observably identical to a from-scratch build over the
// same vector prefix — bucket order and membership, N_H, cumulative weights
// (tablesEqual) and the exact SamplePair draw sequence under a fixed seed.

// samplesEqual drives both tables' weighted samplers from identically seeded
// RNGs and requires draw-for-draw agreement — the strongest form of
// "cumulative weights equivalent", since every descent boundary is exercised
// by real sampling randomness.
func samplesEqual(t *testing.T, want, got *Table, seed uint64, draws int) {
	t.Helper()
	if want.NH() != got.NH() {
		t.Fatalf("NH %d vs %d", got.NH(), want.NH())
	}
	if want.NH() == 0 {
		return
	}
	ra, rb := xrand.New(seed), xrand.New(seed)
	for d := 0; d < draws; d++ {
		wi, wj, wok := want.SamplePair(ra)
		gi, gj, gok := got.SamplePair(rb)
		if wi != gi || wj != gj || wok != gok {
			t.Fatalf("draw %d: (%d,%d,%v) vs (%d,%d,%v)", d, gi, gj, gok, wi, wj, wok)
		}
	}
}

// equivCheck publishes the index and deep-compares every table of the
// resulting snapshot against a rebuild over the same prefix.
func equivCheck(t *testing.T, idx *Index, data []vecmath.Vector, fam Family, k, ell int, seed uint64) {
	t.Helper()
	got := idx.Snapshot()
	if got.N() != len(data) {
		t.Fatalf("snapshot N = %d, want %d", got.N(), len(data))
	}
	want, err := BuildSnapshot(data, fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < ell; ti++ {
		tablesEqual(t, want.Table(ti), got.Table(ti))
		samplesEqual(t, want.Table(ti), got.Table(ti), seed+uint64(ti), 300)
	}
}

// runPublishWorkload drives one randomized workload: random single inserts,
// batches and publish points over a pool that ends in a burst of
// near-distinct vectors, checking equivalence at every publish boundary the
// schedule hits.
func runPublishWorkload(t *testing.T, seed uint64, k, ell int) {
	rng := xrand.New(seed)
	n0 := 60 + rng.Intn(80)
	pool := randData(1400, 90, 7, seed+1)
	// Append a burst of vectors in a private dimension range, so most of
	// them mint fresh buckets.
	for i := 0; i < 500; i++ {
		pool = append(pool, vecmath.FromDims([]uint32{
			uint32(500000 + i),
			uint32(600000 + rng.Intn(1<<18)),
			uint32(800000 + rng.Intn(1<<18)),
		}))
	}
	fam := NewSimHash(seed + 2)
	idx, err := Build(pool[:n0], fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	consumed := n0
	checks := 0
	for consumed < len(pool) && checks < 4 {
		switch rng.Intn(5) {
		case 0: // single insert
			idx.Insert(pool[consumed])
			consumed++
		case 1: // per-insert publication run
			for s := 0; s < 5 && consumed < len(pool); s++ {
				idx.Insert(pool[consumed])
				consumed++
				idx.Snapshot()
			}
		case 2: // batch
			hi := consumed + 1 + rng.Intn(60)
			if hi > len(pool) {
				hi = len(pool)
			}
			idx.InsertBatch(pool[consumed:hi])
			consumed = hi
		case 3: // publish whatever is pending
			idx.Snapshot()
		default: // checkpoint: full equivalence against a rebuild
			equivCheck(t, idx, pool[:consumed], fam, k, ell, seed+uint64(consumed))
			checks++
		}
	}
	equivCheck(t, idx, pool[:consumed], fam, k, ell, seed+uint64(consumed))
}

// TestPublishEquivalenceProperty runs the randomized workload across narrow
// (machine-word) and wide (string) key paths, several seeds, and both
// single-core and full-parallel builds: the rebuild it compares against
// must agree with Fenwick-published snapshots at any GOMAXPROCS.
func TestPublishEquivalenceProperty(t *testing.T) {
	configs := []struct {
		name   string
		k, ell int
	}{
		{"narrow_k10_l2", 10, 2}, // k·bits ≤ 64: uint64 bucket keys
		{"wide_k70_l1", 70, 1},   // k·bits > 64: packed string keys
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, cfg := range configs {
			for _, seed := range []uint64{601, 602, 603} {
				name := fmt.Sprintf("%s/p%d/seed%d", cfg.name, procs, seed)
				t.Run(name, func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					runPublishWorkload(t, seed, cfg.k, cfg.ell)
				})
				if procs == 1 && testing.Short() {
					break
				}
			}
		}
	}
}

// TestPerInsertPublicationVersions pins the policy-facing contract: with one
// publish per insert, every version is observable, versions are strictly
// increasing, and each intermediate snapshot equals a rebuild of its prefix.
func TestPerInsertPublicationVersions(t *testing.T) {
	data := randData(140, 60, 7, 611)
	fam := NewSimHash(612)
	idx, err := Build(data[:100], fam, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	lastVer := idx.Snapshot().Version()
	for i := 100; i < 140; i++ {
		idx.Insert(data[i])
		s := idx.Snapshot()
		if s.Version() != lastVer+1 {
			t.Fatalf("insert %d: version %d, want %d", i, s.Version(), lastVer+1)
		}
		lastVer = s.Version()
		if s.N() != i+1 {
			t.Fatalf("insert %d: N = %d", i, s.N())
		}
	}
	equivCheck(t, idx, data, fam, 12, 1, 613)
}
