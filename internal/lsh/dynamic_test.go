package lsh

import (
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// TestInsertEquivalentToRebuild: building incrementally must produce exactly
// the same buckets, keys and N_H as building from scratch (hashing is a pure
// function of the vector).
func TestInsertEquivalentToRebuild(t *testing.T) {
	data := randData(300, 60, 8, 71)
	full, err := Build(data, NewSimHash(72), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Build(data[:150], NewSimHash(72), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first := half.InsertBatch(data[150:]); first != 150 {
		t.Fatalf("first inserted id = %d, want 150", first)
	}
	if half.N() != full.N() {
		t.Fatalf("sizes differ: %d vs %d", half.N(), full.N())
	}
	for ti := 0; ti < full.L(); ti++ {
		ft, ht := full.Table(ti), half.Table(ti)
		if ft.NH() != ht.NH() {
			t.Errorf("table %d: NH %d vs %d", ti, ht.NH(), ft.NH())
		}
		if ft.NumBuckets() != ht.NumBuckets() {
			t.Errorf("table %d: buckets %d vs %d", ti, ht.NumBuckets(), ft.NumBuckets())
		}
		for i := 0; i < full.N(); i++ {
			if ft.KeyOf(i) != ht.KeyOf(i) {
				t.Fatalf("table %d vector %d: key mismatch", ti, i)
			}
		}
	}
}

// TestInsertMaintainsNHIncrementally: N_H in each published version equals
// the enumeration count over that version, and sampling works against the
// merged tables. (Tables are immutable now, so each iteration re-fetches
// the latest version via Index.Table.)
func TestInsertMaintainsNH(t *testing.T) {
	data := randData(80, 30, 6, 73)
	idx, err := Build(data[:40], NewSimHash(74), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[40:] {
		idx.Insert(v)
		tab := idx.Table(0) // publishes the pending insert
		var count int64
		tab.ForEachIntraPair(func(i, j int32) bool { count++; return true })
		if count != tab.NH() {
			t.Fatalf("after insert: NH=%d but enumeration finds %d", tab.NH(), count)
		}
	}
	tab := idx.Table(0)
	if tab.NH() == 0 {
		t.Skip("degenerate bucket structure")
	}
	rng := xrand.New(75)
	for s := 0; s < 2000; s++ {
		i, j, ok := tab.SamplePair(rng)
		if !ok {
			t.Fatal("sampling failed after inserts")
		}
		if !tab.SameBucket(i, j) {
			t.Fatal("sampled pair not co-bucketed after inserts")
		}
	}
}

// TestInsertDuplicateAlwaysCoBucketed: inserting a copy of an indexed vector
// must land in the same bucket in every table and raise N_H.
func TestInsertDuplicateAlwaysCoBucketed(t *testing.T) {
	data := randData(50, 40, 6, 77)
	idx, err := Build(data, NewSimHash(78), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Table(0).NH()
	id := idx.Insert(data[7])
	for ti := 0; ti < idx.L(); ti++ {
		if !idx.Table(ti).SameBucket(7, id) {
			t.Errorf("table %d: duplicate not co-bucketed", ti)
		}
	}
	if idx.Table(0).NH() <= before {
		t.Errorf("NH did not grow: %d → %d", before, idx.Table(0).NH())
	}
}

// TestInsertVisibleToQueries: new vectors are retrievable via Query/Search.
func TestInsertVisibleToQueries(t *testing.T) {
	data := randData(60, 40, 6, 79)
	idx, err := Build(data, NewSimHash(80), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := vecmath.FromDims([]uint32{1000, 1001, 1002})
	id := idx.Insert(v)
	found := false
	for _, got := range idx.Query(v) {
		if int(got) == id {
			found = true
		}
	}
	if !found {
		t.Error("inserted vector not retrievable by Query")
	}
	hits := idx.Search(v, 0.999)
	found = false
	for _, got := range hits {
		if int(got) == id {
			found = true
		}
	}
	if !found {
		t.Error("inserted vector not found by Search at τ≈1")
	}
}

// CatchUp publishes its vectors as one version stamped with the version it
// is given, and refuses a version that does not advance, an empty run and a
// replica with pending inserts, leaving the replica as it was.
func TestCatchUpStampsVersion(t *testing.T) {
	data := randData(60, 40, 6, 81)
	x, err := Build(data[:40], NewSimHash(82), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := x.CatchUp(data[40:50], 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 7 || s.N() != 50 || x.Current() != s {
		t.Fatalf("CatchUp published (v%d, n%d), want (v7, n50) as the current snapshot", s.Version(), s.N())
	}
	if _, err := x.CatchUp(data[50:], 7); err == nil {
		t.Error("CatchUp to the current version accepted")
	}
	if _, err := x.CatchUp(nil, 8); err == nil {
		t.Error("empty CatchUp accepted")
	}
	x.Insert(data[50])
	if _, err := x.CatchUp(data[51:], 9); err == nil {
		t.Error("CatchUp over a pending insert accepted")
	}
	if cur := x.Current(); cur != s {
		t.Fatalf("refused catch-ups moved the replica to (v%d, n%d)", cur.Version(), cur.N())
	}
}

// A catch-up run can be far longer than any delta published after it — a
// store recovering a 10k-vector delta log, a replica's first catch-up — so
// CatchUp must not leave the run's pending backing arrays alive for the
// life of the index, in either key mode.
func TestCatchUpReleasesRun(t *testing.T) {
	const run = 1000
	data := randData(40+run, 200, 6, 83)
	for _, k := range []int{8, 70} { // narrow and wide bucket keys
		x, err := Build(data[:40], NewSimHash(84), k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.CatchUp(data[40:], 2); err != nil {
			t.Fatal(err)
		}
		if c := cap(x.pendData); c >= run {
			t.Errorf("k=%d: pending vectors keep a backing array of %d after the catch-up", k, c)
		}
		for ti := range x.pend.u64 {
			if c := cap(x.pend.u64[ti]); c >= run {
				t.Errorf("k=%d table %d: pending keys keep a backing array of %d", k, ti, c)
			}
		}
		for ti := range x.pend.str {
			if c := cap(x.pend.str[ti]); c >= run {
				t.Errorf("k=%d table %d: pending keys keep a backing array of %d", k, ti, c)
			}
		}
		// The released index keeps writing.
		id := x.Insert(data[0])
		if s := x.Snapshot(); id != 40+run || s.N() != 41+run || s.Version() != 3 {
			t.Fatalf("k=%d: insert after catch-up got id %d, (n%d, v%d)", k, id, s.N(), s.Version())
		}
	}
}
