package lsh

import (
	"errors"
	"slices"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func TestGroupIDRoundTrip(t *testing.T) {
	cases := []struct{ shard, local int }{
		{0, 0}, {0, 1}, {1, 0}, {7, 12345}, {MaxShards - 1, 1<<shardIDShift - 1},
	}
	for _, c := range cases {
		s, l := SplitGroupID(GroupID(c.shard, c.local))
		if s != c.shard || l != c.local {
			t.Fatalf("GroupID(%d,%d) round-tripped to (%d,%d)", c.shard, c.local, s, l)
		}
	}
	if GroupID(0, 42) != 42 {
		t.Fatalf("single-shard ids must equal local ids, got %d", GroupID(0, 42))
	}
}

// Jump consistent hashing: growing the shard count from n to n+1 either
// keeps a key in place or moves it to the new shard n — never to another
// existing shard — and the spread over shards is roughly uniform.
func TestJumpHashConsistency(t *testing.T) {
	rng := xrand.New(11)
	for n := 1; n <= 8; n++ {
		counts := make([]int, n+1)
		for i := 0; i < 4000; i++ {
			key := rng.Uint64()
			a := jumpHash(key, n)
			b := jumpHash(key, n+1)
			if a < 0 || a >= n || b < 0 || b >= n+1 {
				t.Fatalf("jumpHash out of range: %d of %d, %d of %d", a, n, b, n+1)
			}
			if b != a && b != n {
				t.Fatalf("growing %d→%d moved key to shard %d (was %d)", n, n+1, b, a)
			}
			counts[b]++
		}
		for s, c := range counts {
			if want := 4000 / (n + 1); c < want/2 || c > want*2 {
				t.Fatalf("n=%d: shard %d holds %d of 4000 keys (want ≈%d)", n+1, s, c, want)
			}
		}
	}
}

// Routing is a pure function of the vector value: equal vectors share a
// shard, and the route does not depend on insert order or group state.
func TestRouteDeterministic(t *testing.T) {
	data := randData(200, 500, 8, 21)
	g1, err := NewShardGroup(data, NewSimHash(3), 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewShardGroup(data[:10], NewSimHash(3), 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if g1.Route(v) != g2.Route(v) {
			t.Fatalf("vector %d routed differently by two groups", i)
		}
		dup, _ := vecmath.New(append([]vecmath.Entry(nil), v.Entries()...))
		if g1.Route(dup) != g1.Route(v) {
			t.Fatalf("vector %d: equal vectors routed to different shards", i)
		}
	}
}

// An S=1 group is the plain Index: same tables after build and after a mixed
// Insert/InsertBatch workload.
func TestShardGroupSingleShardMatchesBuild(t *testing.T) {
	data := randData(300, 2000, 10, 31)
	tail := randData(60, 2000, 10, 32)
	fam := NewSimHash(5)

	g, err := NewShardGroup(data, fam, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(data, fam, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tail {
		if i%3 == 0 {
			gids := g.InsertBatch(tail[i : i+1])
			wid := want.InsertBatch(tail[i : i+1])
			if gids[0] != int64(wid) {
				t.Fatalf("insert %d: group id %d, index id %d", i, gids[0], wid)
			}
			continue
		}
		gid := g.Insert(v)
		wid := want.Insert(v)
		if gid != int64(wid) {
			t.Fatalf("insert %d: group id %d, index id %d", i, gid, wid)
		}
	}
	gs := g.Capture()
	ws := want.Snapshot()
	if gs.N() != ws.N() {
		t.Fatalf("N %d vs %d", gs.N(), ws.N())
	}
	for ti := 0; ti < 2; ti++ {
		tablesEqual(t, ws.Table(ti), gs.Snap(0).Table(ti))
	}
}

// buildGroupAndUnion routes data into a group and builds a single union
// index over the same vectors in dense order, so dense ids align between the
// two and per-pair observables can be compared directly.
func buildGroupAndUnion(t *testing.T, data []vecmath.Vector, fam Family, k, ell, s int) (*ShardGroup, *GroupSnapshot, *Snapshot) {
	t.Helper()
	g, err := NewShardGroup(data, fam, k, ell, s)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.Capture()
	union, err := BuildSnapshot(gs.Data(), fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	return g, gs, union
}

// The dense view enumerates exactly the routed union: every input vector
// appears once, Locate/Dense/At are mutually consistent, and the per-pair
// bucket tests agree with a single index built over the dense order.
func TestGroupSnapshotMatchesUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		fam  Family
		k    int
	}{
		{"narrow-simhash", NewSimHash(7), 10},
		{"wide-minhash", NewMinHash(7), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randData(160, 300, 6, 41) // small universe: plenty of collisions
			_, gs, union := buildGroupAndUnion(t, data, tc.fam, tc.k, 2, 3)
			if gs.N() != len(data) {
				t.Fatalf("dense view holds %d vectors, want %d", gs.N(), len(data))
			}
			for i := 0; i < gs.N(); i++ {
				s, l := gs.Locate(i)
				if gs.Dense(s, l) != i {
					t.Fatalf("Locate/Dense disagree at %d", i)
				}
				if gs.At(i).String() != gs.Data()[i].String() {
					t.Fatalf("At(%d) differs from Data()[%d]", i, i)
				}
			}
			for i := 0; i < gs.N(); i++ {
				for j := i + 1; j < gs.N(); j++ {
					for ti := 0; ti < 2; ti++ {
						if got, want := gs.SameBucketInTable(ti, i, j), union.Table(ti).SameBucket(i, j); got != want {
							t.Fatalf("SameBucketInTable(%d,%d,%d) = %v, union %v", ti, i, j, got, want)
						}
					}
					if got, want := gs.SameAnyBucket(i, j), union.SameAnyBucket(i, j); got != want {
						t.Fatalf("SameAnyBucket(%d,%d) = %v, union %v", i, j, got, want)
					}
					if got, want := gs.BucketMultiplicity(i, j), union.BucketMultiplicity(i, j); got != want {
						t.Fatalf("BucketMultiplicity(%d,%d) = %d, union %d", i, j, got, want)
					}
				}
			}
		})
	}
}

// Stratum-H additivity: per-shard N_H plus cross-shard bipartite N_H equals
// the union index's N_H exactly, table by table — the identity the merged
// estimators are built on.
func TestGroupNHAdditivity(t *testing.T) {
	data := randData(400, 250, 5, 51)
	for _, s := range []int{1, 2, 3, 5} {
		_, gs, union := buildGroupAndUnion(t, data, NewSimHash(9), 8, 2, s)
		for ti := 0; ti < 2; ti++ {
			var sum int64
			for a := 0; a < gs.S(); a++ {
				sum += gs.Snap(a).Table(ti).NH()
				for b := a + 1; b < gs.S(); b++ {
					bp, err := NewBipartite(gs.Snap(a), gs.Snap(b), ti)
					if err != nil {
						t.Fatal(err)
					}
					sum += bp.NH()
				}
			}
			if want := union.Table(ti).NH(); sum != want {
				t.Fatalf("s=%d table %d: sharded N_H %d, union %d", s, ti, sum, want)
			}
		}
	}
}

// A group with more shards than vectors leaves some shards empty; captures,
// reads and subsequent inserts must all work.
func TestGroupEmptyShards(t *testing.T) {
	data := randData(5, 100, 4, 61)
	g, err := NewShardGroup(data, NewSimHash(3), 6, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.Capture()
	if gs.N() != len(data) {
		t.Fatalf("N = %d, want %d", gs.N(), len(data))
	}
	empty := 0
	for s := 0; s < gs.S(); s++ {
		if gs.Snap(s).N() == 0 {
			empty++
			if ids := gs.Snap(s).Query(data[0]); len(ids) != 0 {
				t.Fatalf("query on empty shard returned %v", ids)
			}
		}
	}
	if empty == 0 {
		t.Fatal("expected at least one empty shard with 5 vectors over 16 shards")
	}
	tail := randData(200, 100, 4, 62)
	for _, v := range tail {
		g.Insert(v)
	}
	if got := g.Capture().N(); got != len(data)+len(tail) {
		t.Fatalf("after inserts N = %d, want %d", got, len(data)+len(tail))
	}
}

// InsertBatch must leave every shard in the same state as routing the same
// vectors through one-at-a-time Inserts, and report ids for the same homes.
func TestGroupInsertBatchMatchesInserts(t *testing.T) {
	data := randData(100, 400, 6, 71)
	tail := randData(150, 400, 6, 72)
	fam := NewMinHash(13) // wide keys: exercise the string path too
	ga, err := NewShardGroup(data, fam, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewShardGroup(data, fam, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	batchIDs := ga.InsertBatch(tail)
	oneIDs := make([]int64, len(tail))
	for i, v := range tail {
		oneIDs[i] = gb.Insert(v)
	}
	for i := range tail {
		if batchIDs[i] != oneIDs[i] {
			t.Fatalf("vector %d: batch id %d, insert id %d", i, batchIDs[i], oneIDs[i])
		}
	}
	sa, sb := ga.Capture(), gb.Capture()
	for s := 0; s < 4; s++ {
		for ti := 0; ti < 2; ti++ {
			tablesEqual(t, sb.Snap(s).Table(ti), sa.Snap(s).Table(ti))
		}
	}
}

// InsertRouted hands runs to insert in shard order, assigns ids from each
// run's first local id, and stops at the first failing shard.
func TestInsertRoutedOrderAndError(t *testing.T) {
	vs := randData(60, 400, 6, 73)
	var order []int
	ids, err := InsertRouted(vs, 4, func(s int, run []vecmath.Vector) (int, error) {
		order = append(order, s)
		return 10 * s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(order) {
		t.Fatalf("runs inserted in shard order %v", order)
	}
	next := map[int]int{}
	for i, v := range vs {
		s := RouteVector(v, 4)
		if want := GroupID(s, 10*s+next[s]); ids[i] != want {
			t.Fatalf("vector %d: id %d, want %d", i, ids[i], want)
		}
		next[s]++
	}
	boom := errors.New("boom")
	calls := 0
	if _, err := InsertRouted(vs, 4, func(int, []vecmath.Vector) (int, error) {
		calls++
		return 0, boom
	}); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("error %v after %d calls, want boom after 1", err, calls)
	}
}

// Capture reflects per-shard versions: inserting into one shard bumps only
// that shard's version at the next capture.
func TestGroupVersions(t *testing.T) {
	data := randData(64, 200, 5, 81)
	g, err := NewShardGroup(data, NewSimHash(3), 8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Capture().Versions()
	v := randData(1, 200, 5, 82)[0]
	home := g.Route(v)
	g.Insert(v)
	after := g.Capture().Versions()
	for s := range after {
		want := before[s]
		if s == home {
			want++
		}
		if after[s] != want {
			t.Fatalf("shard %d version %d, want %d (home %d)", s, after[s], want, home)
		}
	}
	// Current never publishes: pending inserts stay invisible to it.
	g.Insert(v)
	cur := g.Current().Versions()
	for s := range cur {
		if cur[s] != after[s] {
			t.Fatalf("Current bumped shard %d to %d", s, cur[s])
		}
	}
}

// Cross-group bipartite decomposition: the S_left·S_right per-shard-pair
// bipartite matchings partition the union bipartite stratum H, so their N_H
// values sum to the N_H of one matching built over the two union sides, and
// SameBucketAcrossGroups agrees pair-for-pair with the union matching's
// membership test.
func TestCrossGroupMatchesUnionBipartite(t *testing.T) {
	family := NewSimHash(5)
	const k, ell = 6, 2
	left := randData(120, 40, 4, 31) // small dims so buckets genuinely collide
	right := randData(90, 40, 4, 33)
	copy(right[:15], left[:15]) // plant shared vectors for high-sim matches
	gl, err := NewShardGroup(left, family, k, ell, 3)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewShardGroup(right, family, k, ell, 2)
	if err != nil {
		t.Fatal(err)
	}
	lgs, rgs := gl.Capture(), gr.Capture()
	if err := CompatibleCross(lgs, rgs); err != nil {
		t.Fatal(err)
	}
	ul, err := BuildSnapshot(lgs.Data(), family, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := BuildSnapshot(rgs.Data(), family, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < ell; ti++ {
		union, err := NewBipartite(ul, ur, ti)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for a := 0; a < lgs.S(); a++ {
			for b := 0; b < rgs.S(); b++ {
				bp, err := NewBipartite(lgs.Snap(a), rgs.Snap(b), ti)
				if err != nil {
					t.Fatal(err)
				}
				sum += bp.NH()
			}
		}
		if sum != union.NH() {
			t.Fatalf("table %d: per-shard-pair N_H sum %d, union %d", ti, sum, union.NH())
		}
		if sum == 0 {
			t.Fatalf("table %d: degenerate fixture, N_H = 0", ti)
		}
		for i := 0; i < lgs.N(); i++ {
			for j := 0; j < rgs.N(); j++ {
				if got, want := lgs.SameBucketAcrossGroups(ti, i, rgs, j), union.SameBucket(i, j); got != want {
					t.Fatalf("table %d: SameBucketAcrossGroups(%d,%d)=%v, union %v", ti, i, j, got, want)
				}
			}
		}
	}
}

// CompatibleCross rejects group pairs whose bucket keys are not comparable.
func TestCompatibleCrossValidation(t *testing.T) {
	data := randData(8, 40, 3, 7)
	mk := func(fam Family, k int) *GroupSnapshot {
		g, err := NewShardGroup(data, fam, k, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return g.Capture()
	}
	base := mk(NewSimHash(1), 6)
	if err := CompatibleCross(base, mk(NewSimHash(1), 6)); err != nil {
		t.Fatalf("same family+k rejected: %v", err)
	}
	if err := CompatibleCross(base, mk(NewSimHash(2), 6)); err == nil {
		t.Error("mismatched families accepted")
	}
	if err := CompatibleCross(base, mk(NewSimHash(1), 5)); err == nil {
		t.Error("mismatched k accepted")
	}
	if err := CompatibleCross(base, nil); err == nil {
		t.Error("nil side accepted")
	}
}
