package lsh

import (
	"testing"

	"lshjoin/internal/vecmath"
)

// The retention tests assert snapshot GC health through the RetainedBytes
// accounting walk (accounting.go) instead of heap sampling: the walk is
// deterministic, immune to GC noise and allocator slack, and it measures
// the thing we actually care about — how many bytes version v pins beyond
// version v-1 — rather than a whole-process proxy for it.

// retentionWorkload publishes `rounds` per-insert versions of one index,
// measuring each version's marginal retention over its predecessor. In the
// same-bucket mode every insert repeats one vector, so each publish should
// path-copy only that bucket's header, its O(log #buckets) weight-tree root
// path, and the appended key/vector — about 1KB here. In the fresh mode
// every insert is a vector on a dimension of its own, hashed at k = 24, so
// each opens a bucket: its publish adds a bucket header, a leaf path, one
// first-member id and one slot of the shared bucket lookup, plus a share
// of the lookup's rehash each time the bucket count doubles. If the index,
// the weight tree or the bucket lookup accidentally stopped sharing
// structure between versions, the marginals would jump to the footprint
// scale (see the sensitivity control).
func retentionWorkload(t *testing.T, rounds int, fresh bool) (meanMarginal, maxMarginal int64, first, last *Snapshot) {
	t.Helper()
	data, k := randData(2000, 400, 6, 91), 12
	if fresh {
		data, k = randData(4000, 400, 6, 91), 24
	}
	idx, err := Build(data, NewSimHash(17), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	first = idx.Snapshot()
	prev := first
	var sum int64
	for i := 0; i < rounds; i++ {
		v := data[0]
		if fresh {
			v = vecmath.FromDims([]uint32{uint32(1<<20 + i)})
		}
		idx.Insert(v)
		last = idx.Snapshot()
		if fresh && last.Table(0).NumBuckets() != prev.Table(0).NumBuckets()+1 {
			t.Fatalf("fresh insert %d opened no bucket", i)
		}
		m := last.RetainedBytes(prev)
		if m < 0 {
			t.Fatalf("negative marginal retention %d at round %d", m, i)
		}
		sum += m
		if m > maxMarginal {
			maxMarginal = m
		}
		prev = last
	}
	meanMarginal = sum / int64(rounds)
	return meanMarginal, maxMarginal, first, last
}

// TestSnapshotRetentionBounded is the memory-accounting groundwork for the
// ROADMAP snapshot-GC item: across a thousand or more per-insert publishes
// the MEAN marginal retention must stay at the path-copy scale, whether the
// inserts land in one bucket or each opens its own. The mean (not the max)
// is the right statistic because backing-array reallocations and lookup
// rehashes legitimately spike single versions — doubling a 4000-entry key
// array charges that one version tens of KB — but amortize to nothing.
//
// The fresh mode is what a publish that copies its lookup fails: a table
// that keeps new buckets in a second map and copies that map whenever a
// merge opens one read a mean of 9030 bytes/version here.
func TestSnapshotRetentionBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds int
		fresh  bool
	}{
		{"same_bucket", 1500, false},
		{"fresh_bucket", 1000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mean, _, first, last := retentionWorkload(t, tc.rounds, tc.fresh)
			t.Logf("mean marginal retention %d bytes/version", mean)

			// Measured means are ~1KB/version (bucket header + log-depth
			// wnode path + one vector); 4KB separates them cleanly from any
			// sharing regression, which lands at the ~400KB footprint scale
			// per version.
			const bound = 4 << 10
			if mean > bound {
				t.Fatalf("mean marginal retention %d bytes/version over %d per-insert publishes (bound %d): versions have stopped sharing structure",
					mean, tc.rounds, bound)
			}
			if last.N() != first.N()+tc.rounds {
				t.Fatalf("latest version has %d vectors, want %d", last.N(), first.N()+tc.rounds)
			}
			// Holding ONE old version stays cheap and keeps working:
			// structural sharing pins that version's arrays, not every
			// intermediate.
			if n := first.N(); first.Table(0).N() != n || (n != 2000 && n != 4000) {
				t.Fatalf("held snapshot regressed: N=%d", n)
			}
		})
	}
}

// TestSnapshotRetentionDetectorSensitivity is the control for the bound
// above: the walker must be measuring sharing, not just reporting small
// numbers. A snapshot's total footprint (RetainedBytes(nil)) has to dwarf
// the per-version marginal, and comparing against an unrelated index —
// where no structure can be shared — has to land at footprint scale too.
func TestSnapshotRetentionDetectorSensitivity(t *testing.T) {
	const rounds = 300
	mean, _, _, last := retentionWorkload(t, rounds, false)

	total := last.RetainedBytes(nil)
	if total < 100*(mean+1) {
		t.Fatalf("footprint %d not clearly above mean marginal %d: the walk no longer discriminates shared from fresh structure",
			total, mean)
	}

	// An unrelated index of the same shape shares nothing; charging it as a
	// base must not discount anything material.
	other, err := Build(randData(2000, 400, 6, 17), NewSimHash(23), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cross := last.RetainedBytes(other.Snapshot())
	if cross < total/2 {
		t.Fatalf("cross-index retention %d under half the footprint %d: sharing detected where none exists", cross, total)
	}
}

// TestRetainedBytesEdgeCases pins the identities the accounting API
// documents: self-retention is zero, nil snapshots retain nothing, and a
// base only discounts — it never inflates.
func TestRetainedBytesEdgeCases(t *testing.T) {
	idx, err := Build(randData(200, 100, 5, 3), NewSimHash(7), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := idx.Snapshot()
	if got := s.RetainedBytes(s); got != 0 {
		t.Errorf("self retention = %d, want 0", got)
	}
	var nilSnap *Snapshot
	if got := nilSnap.RetainedBytes(nil); got != 0 {
		t.Errorf("nil snapshot retention = %d, want 0", got)
	}
	idx.Insert(randData(1, 100, 5, 4)[0])
	next := idx.Snapshot()
	if next.RetainedBytes(s) > next.RetainedBytes(nil) {
		t.Errorf("marginal %d exceeds footprint %d", next.RetainedBytes(s), next.RetainedBytes(nil))
	}
	if next.RetainedBytes(nil) <= 0 {
		t.Errorf("footprint = %d, want positive", next.RetainedBytes(nil))
	}
}
