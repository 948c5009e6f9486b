package lsh

import (
	"testing"

	"lshjoin/internal/xrand"
)

// collectBuckets snapshots a table's bucket sequence in deterministic order
// via the weight tree's in-order traversal.
func collectBuckets(tab *Table) []*bucket {
	out := make([]*bucket, 0, tab.NumBuckets())
	tab.w.walk(func(_ int, b *bucket) bool {
		out = append(out, b)
		return true
	})
	return out
}

// tablesEqual deep-compares every observable of two tables: per-vector keys,
// bucket order and membership, N_H, cumulative weights, and lookups for
// every key.
func tablesEqual(t *testing.T, a, b *Table) {
	t.Helper()
	if a.N() != b.N() || a.K() != b.K() || a.FnBase() != b.FnBase() || a.Narrow() != b.Narrow() {
		t.Fatalf("table shape differs: n=%d/%d k=%d/%d", a.N(), b.N(), a.K(), b.K())
	}
	if a.NH() != b.NH() || a.NumBuckets() != b.NumBuckets() {
		t.Fatalf("NH %d vs %d, buckets %d vs %d", a.NH(), b.NH(), a.NumBuckets(), b.NumBuckets())
	}
	for i := 0; i < a.N(); i++ {
		if a.KeyOf(i) != b.KeyOf(i) {
			t.Fatalf("vector %d: key mismatch", i)
		}
	}
	oa, ob := collectBuckets(a), collectBuckets(b)
	if len(oa) != len(ob) || len(oa) != a.NumBuckets() {
		t.Fatalf("bucket walk lengths %d/%d vs NumBuckets %d", len(oa), len(ob), a.NumBuckets())
	}
	for bi := range oa {
		ba, bb := oa[bi], ob[bi]
		if ba.keyString(a.narrow) != bb.keyString(b.narrow) {
			t.Fatalf("bucket %d: key %q vs %q", bi, ba.keyString(a.narrow), bb.keyString(b.narrow))
		}
		if len(ba.ids) != len(bb.ids) {
			t.Fatalf("bucket %d: %d vs %d members", bi, len(ba.ids), len(bb.ids))
		}
		for x := range ba.ids {
			if ba.ids[x] != bb.ids[x] {
				t.Fatalf("bucket %d member %d: id %d vs %d", bi, x, ba.ids[x], bb.ids[x])
			}
		}
		if a.w.prefix(bi) != b.w.prefix(bi) {
			t.Fatalf("bucket %d: cum %d vs %d", bi, a.w.prefix(bi), b.w.prefix(bi))
		}
	}
	for i := 0; i < a.N(); i++ {
		key := a.KeyOf(i)
		ia := a.BucketIDs(key)
		ib := b.BucketIDs(key)
		if len(ia) == 0 || len(ia) != len(ib) || ia[0] != ib[0] {
			t.Fatalf("lookup of key of vector %d disagrees", i)
		}
	}
}

// TestParallelBuildFirstAppearanceOrder pins the bucket-order contract the
// samplers rely on: order[i] buckets appear by ascending first member id.
func TestParallelBuildFirstAppearanceOrder(t *testing.T) {
	rng := xrand.New(405)
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64n(700)
	}
	tab := buildTable(keys, 8, 0, 1)
	prev := int32(-1)
	for bi, b := range collectBuckets(tab) {
		if len(b.ids) == 0 {
			t.Fatalf("bucket %d empty", bi)
		}
		if b.ids[0] <= prev {
			t.Fatalf("bucket %d: first id %d not after %d", bi, b.ids[0], prev)
		}
		prev = b.ids[0]
	}
}

// TestBuildThroughIndexMatchesForcedWorkers: a real SimHash build matches a
// table construction straight from the same signatures.
func TestBuildThroughIndexMatchesForcedWorkers(t *testing.T) {
	data := randData(6000, 800, 10, 407)
	fam := NewSimHash(408)
	snap, err := BuildSnapshot(data, fam, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigs := newEngine(fam, 16, 2, SignConfig{}).sign(data)
	for ti := 0; ti < 2; ti++ {
		serial := buildTable(sigs.u64[ti], 16, ti*16, 1)
		tablesEqual(t, serial, snap.Table(ti))
	}
}
