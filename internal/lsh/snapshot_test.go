package lsh

import (
	"sync"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// TestSnapshotIsolation: a snapshot taken before an insert is bit-frozen —
// later inserts change neither its size nor its tables — while the next
// snapshot sees the delta and carries a higher version.
func TestSnapshotIsolation(t *testing.T) {
	data := randData(200, 60, 8, 301)
	idx, err := Build(data, NewSimHash(302), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	s1 := idx.Snapshot()
	if s1.Version() != 1 {
		t.Fatalf("fresh version = %d", s1.Version())
	}
	if again := idx.Snapshot(); again != s1 {
		t.Error("no-delta Snapshot should return the same version object")
	}
	nh := s1.Table(0).NH()
	nb := s1.Table(0).NumBuckets()
	idx.Insert(data[0])
	idx.Insert(vecmath.FromDims([]uint32{9000, 9001}))
	if s1.N() != 200 || s1.Table(0).N() != 200 {
		t.Fatalf("old snapshot grew: N=%d", s1.N())
	}
	if s1.Table(0).NH() != nh || s1.Table(0).NumBuckets() != nb {
		t.Error("old snapshot's table changed under insert")
	}
	s2 := idx.Snapshot()
	if s2.Version() != 2 {
		t.Fatalf("published version = %d, want 2", s2.Version())
	}
	if s2.N() != 202 || s2.Table(0).N() != 202 {
		t.Fatalf("new snapshot N = %d, want 202", s2.N())
	}
	if !s2.Table(0).SameBucket(0, 200) {
		t.Error("duplicate insert not co-bucketed in new version")
	}
	// Old snapshot still samples and queries correctly.
	if nh > 0 {
		rng := xrand.New(303)
		for r := 0; r < 500; r++ {
			i, j, ok := s1.Table(0).SamplePair(rng)
			if !ok || i >= 200 || j >= 200 {
				t.Fatalf("old snapshot sampled out of its version: (%d,%d,%v)", i, j, ok)
			}
		}
	}
}

// TestMergeEquivalentToRebuild: any interleaving of Insert/InsertBatch and
// Snapshot must converge to exactly the tables a from-scratch build of the
// full data produces (narrow mode).
func TestMergeEquivalentToRebuild(t *testing.T) {
	data := randData(500, 80, 8, 311)
	full, err := BuildSnapshot(data, NewSimHash(312), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(data[:100], NewSimHash(312), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[100:150] {
		idx.Insert(v)
	}
	idx.Snapshot() // publish mid-way
	idx.InsertBatch(data[150:400])
	for _, v := range data[400:] {
		idx.Insert(v)
	}
	got := idx.Snapshot()
	for ti := 0; ti < 2; ti++ {
		tablesEqual(t, full.Table(ti), got.Table(ti))
	}
}

// TestMergeEquivalentToRebuildWide is the same contract for string keys
// (k·bits > 64).
func TestMergeEquivalentToRebuildWide(t *testing.T) {
	data := randData(300, 50, 6, 321)
	full, err := BuildSnapshot(data, NewSimHash(322), 70, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(data[:120], NewSimHash(322), 70, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx.InsertBatch(data[120:250])
	idx.Snapshot()
	for _, v := range data[250:] {
		idx.Insert(v)
	}
	tablesEqual(t, full.Table(0), idx.Snapshot().Table(0))
}

// TestLookupRegrow drives enough new-bucket merges through a small base
// table to make the shared bucket lookup regrow several times, then
// verifies lookups and a full rebuild comparison still hold.
func TestLookupRegrow(t *testing.T) {
	base := randData(50, 40, 6, 331)
	idx, err := Build(base, NewSimHash(332), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots0 := len(idx.Current().Table(0).words.slots)
	// Mostly-distinct vectors in a fresh dimension range: nearly every
	// insert creates a new bucket, growing the bucket count far beyond the
	// base's.
	extra := make([]vecmath.Vector, 0, 600)
	rng := xrand.New(333)
	for i := 0; i < 600; i++ {
		dims := []uint32{uint32(100000 + i), uint32(200000 + rng.Intn(1<<20)), uint32(400000 + rng.Intn(1<<20))}
		extra = append(extra, vecmath.FromDims(dims))
	}
	all := append(append([]vecmath.Vector(nil), base...), extra...)
	// One-by-one publishes exercise repeated small merges; the batch at the
	// end exercises one big merge.
	for _, v := range extra[:300] {
		idx.Insert(v)
		idx.Snapshot()
	}
	idx.InsertBatch(extra[300:])
	got := idx.Snapshot()
	tab := got.Table(0)
	if n := len(tab.words.slots); n < 8*slots0 || 2*tab.NumBuckets() > n {
		t.Errorf("lookup has %d slots for %d buckets, from %d at build: want ≥ 3 regrows at load ≤ 1/2",
			n, tab.NumBuckets(), slots0)
	}
	full, err := BuildSnapshot(all, NewSimHash(332), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, full.Table(0), tab)
}

// TestInsertDoesNotClobberCallerSlice: building over a prefix of a larger
// caller slice must never let delta merges append into the caller's spare
// capacity and overwrite their live tail elements.
func TestInsertDoesNotClobberCallerSlice(t *testing.T) {
	backing := randData(60, 40, 6, 351)
	pristine := randData(60, 40, 6, 351) // same seed → identical values
	idx, err := Build(backing[:40], NewSimHash(352), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx.Insert(vecmath.FromDims([]uint32{77777}))
	idx.InsertBatch(randData(5, 40, 6, 353))
	idx.Snapshot()
	for i := 40; i < 60; i++ {
		if backing[i].NNZ() != pristine[i].NNZ() || vecmath.Cosine(backing[i], pristine[i]) != 1 {
			t.Fatalf("caller-owned element %d was overwritten by a merge", i)
		}
	}
}

// TestConcurrentInsertQuerySnapshot is the package-level race check: one
// writer streams inserts while readers query, sample, search and snapshot.
// Run with -race; correctness assertions are deliberately version-relative.
func TestConcurrentInsertQuerySnapshot(t *testing.T) {
	data := randData(800, 120, 8, 341)
	idx, err := Build(data[:400], NewSimHash(342), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for _, v := range data[400:] {
			idx.Insert(v)
		}
		idx.Snapshot()
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(343 + w))
			for {
				select {
				case <-done:
					return
				default:
				}
				s := idx.Snapshot()
				n := s.N()
				if n < 400 || n > 800 {
					t.Errorf("snapshot N = %d out of range", n)
					return
				}
				ids := s.Query(data[rng.Intn(400)])
				for _, id := range ids {
					if int(id) >= n {
						t.Errorf("query id %d exceeds snapshot size %d", id, n)
						return
					}
				}
				if tab := s.Table(0); tab.NH() > 0 {
					i, j, ok := tab.SamplePair(rng)
					if !ok || i >= n || j >= n {
						t.Errorf("sample (%d,%d,%v) out of version n=%d", i, j, ok, n)
						return
					}
				}
				_ = s.Search(data[rng.Intn(400)], 0.9)
			}
		}(w)
	}
	wg.Wait()
	final := idx.Snapshot()
	if final.N() != 800 {
		t.Fatalf("final N = %d", final.N())
	}
	want, err := BuildSnapshot(data, NewSimHash(342), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 2; ti++ {
		tablesEqual(t, want.Table(ti), final.Table(ti))
	}
}
