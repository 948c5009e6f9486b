package lsh

import (
	"sync/atomic"
	"unsafe"

	"lshjoin/internal/vecmath"
)

// Per-version space accounting. Consecutive snapshots share almost all of
// their structure (key and first-member backing arrays, bucket id slices,
// the bucket lookup array, Fenwick subtrees), so the interesting quantity
// for snapshot GC is not a version's total footprint but what it retains
// *beyond* the version it grew from — the bytes that stay pinned as long as
// both versions are reachable, and the bytes freed when the older one is
// dropped.
//
// RetainedBytes computes that by structure walking, not heap sampling: it
// prunes every Fenwick subtree, bucket, backing array and lookup array that
// is pointer-identical to (or backing-shared with) the base version and
// charges only what this snapshot allocated on top. The numbers are
// estimates in the same spirit as Table.SizeBytes — struct and element
// sizes via unsafe.Sizeof, ignoring Go runtime overheads — but they are
// deterministic, allocation-free to compute for small deltas, and monotone
// in the real retention, which is what the retention tests assert against
// (see retention_test.go).

var (
	wnodeBytes     = int64(unsafe.Sizeof(wnode{}))
	bucketHdrBytes = int64(unsafe.Sizeof(bucket{}))
	strHdrBytes    = int64(unsafe.Sizeof(""))
	vecHdrBytes    = int64(unsafe.Sizeof(vecmath.Vector{}))
	entryBytes     = int64(unsafe.Sizeof(vecmath.Entry{}))
	snapHdrBytes   = int64(unsafe.Sizeof(Snapshot{}))
	tableHdrBytes  = int64(unsafe.Sizeof(Table{}))
	slotBytes      = int64(unsafe.Sizeof(atomic.Uint64{}))
)

// sliceShared reports whether cur extends base in place: same backing
// array, so only the elements past len(base) are new.
func sliceShared[T any](cur, base []T) bool {
	return len(base) > 0 && len(cur) >= len(base) && &cur[0] == &base[0]
}

// RetainedBytes estimates the bytes of index structure this snapshot keeps
// alive beyond what base already keeps alive. RetainedBytes(nil) is the
// snapshot's total estimated footprint; s.RetainedBytes(s) is 0; for
// consecutive versions v-1, v the result is the marginal cost of holding
// version v while v-1 is still reachable — the per-version retention bound
// the GC tests assert.
func (s *Snapshot) RetainedBytes(base *Snapshot) int64 {
	if s == nil || s == base {
		return 0
	}
	if base != nil && (base.ell != s.ell || base.narrow != s.narrow) {
		base = nil // not versions of one index; no sharing to discover
	}
	total := snapHdrBytes + int64(s.ell)*tableHdrBytes
	var baseData []vecmath.Vector
	if base != nil {
		baseData = base.data
	}
	total += retainedVectors(s.data, baseData, base != nil)
	for t := 0; t < s.ell; t++ {
		var bt *Table
		if base != nil {
			bt = base.tables[t]
		}
		total += s.tables[t].retainedBytes(bt)
	}
	return total
}

// retainedVectors charges the vector collection. A shared backing array
// costs only the appended suffix (headers + entry payloads); a reallocated
// one costs the fresh header array but not the entry payloads, which the
// vectors still share with the base version.
func retainedVectors(cur, base []vecmath.Vector, haveBase bool) int64 {
	if sliceShared(cur, base) {
		var total int64
		for _, v := range cur[len(base):] {
			total += vecHdrBytes + entryBytes*int64(len(v.Entries()))
		}
		return total
	}
	if haveBase && len(base) > 0 {
		return vecHdrBytes * int64(cap(cur))
	}
	total := vecHdrBytes * int64(cap(cur)-len(cur))
	for _, v := range cur {
		total += vecHdrBytes + entryBytes*int64(len(v.Entries()))
	}
	return total
}

// retainedBytes charges one table against its base-version counterpart.
func (t *Table) retainedBytes(bt *Table) int64 {
	var total int64
	if t.narrow {
		total += retainedKeys[uint64](t, bt, 8)
	} else {
		total += retainedKeys[string](t, bt, strHdrBytes)
	}
	// Fenwick nodes and buckets: walk this table's tree, pruning every
	// subtree shared with the base version, and charge new leaves against
	// the base bucket at the same index (bucket indices are stable — the
	// sequence only ever appends).
	var baseNodes map[*wnode]struct{}
	var baseBuckets []*bucket
	if bt != nil {
		baseNodes = make(map[*wnode]struct{})
		var collect func(n *wnode)
		collect = func(n *wnode) {
			if n == nil {
				return
			}
			baseNodes[n] = struct{}{}
			collect(n.l)
			collect(n.r)
		}
		collect(bt.w.root)
		baseBuckets = make([]*bucket, 0, bt.w.size)
		bt.w.walk(func(_ int, b *bucket) bool {
			baseBuckets = append(baseBuckets, b)
			return true
		})
	}
	var rec func(n *wnode, lo, sp int)
	rec = func(n *wnode, lo, sp int) {
		if n == nil {
			return
		}
		if _, shared := baseNodes[n]; shared {
			return
		}
		total += wnodeBytes
		if sp <= 1 {
			var old *bucket
			if lo < len(baseBuckets) {
				old = baseBuckets[lo]
			}
			total += t.retainedBucket(n.b, old)
			return
		}
		rec(n.l, lo, sp/2)
		rec(n.r, lo+sp/2, sp/2)
	}
	rec(t.w.root, 0, t.w.span)
	return total
}

// retainedKeys charges a table's key column, elem bytes per key, its
// first-member column and its lookup array against the base-version
// counterpart bt (nil for none).
func retainedKeys[K key](t, bt *Table, elem int64) int64 {
	x := keysOf[K](t)
	var bx keyIndex[K]
	if bt != nil {
		bx = *keysOf[K](bt)
	}
	total := retainedColumn(x.keys, bx.keys, elem) + retainedColumn(x.first, bx.first, 4)
	// The lookup array is shared wholesale until a regrow replaces it; the
	// slots a version fills in a shared array were allocated with it.
	if !sliceShared(x.slots, bx.slots) {
		total += slotBytes * int64(len(x.slots))
	}
	return total
}

// retainedColumn charges an append-only column, elem bytes per element:
// the elements past base when cur extends base's backing, else cur's whole
// capacity.
func retainedColumn[T any](cur, base []T, elem int64) int64 {
	if sliceShared(cur, base) {
		return elem * int64(len(cur)-len(base))
	}
	return elem * int64(cap(cur))
}

// retainedBucket charges one bucket header against the base version's
// bucket at the same index: a pointer-identical bucket costs nothing, a
// copied header extending the same id backing costs the appended ids, and
// a reallocated one costs its full id capacity.
func (t *Table) retainedBucket(b, old *bucket) int64 {
	if b == nil || b == old {
		return 0
	}
	total := bucketHdrBytes
	if !t.narrow && old == nil {
		total += int64(len(b.keyStr)) // new bucket: its key string is new too
	}
	if old != nil && sliceShared(b.ids, old.ids) {
		total += 4 * int64(len(b.ids)-len(old.ids))
	} else {
		total += 4 * int64(cap(b.ids))
	}
	return total
}
