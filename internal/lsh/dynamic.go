package lsh

import (
	"fmt"

	"lshjoin/internal/vecmath"
)

// Dynamic maintenance: the paper pitches the estimator as "minimal addition
// to the existing LSH index", and existing LSH indexes grow while they serve
// reads. Insert and InsertBatch append hashed vectors to a pending delta;
// Snapshot merges the delta into a fresh immutable version — keeping bucket
// counts and N_H exact — and publishes it atomically. Readers (queries,
// samplers, estimators) are never invalidated: whatever Snapshot they hold
// keeps answering over its own version, and new readers pick up the merged
// version lock-free.
//
// A merge is copy-on-write and costs O(d · log #buckets) for a d-key delta,
// amortized: the new version shares the bucket lookup (lookup.go), the key
// column and first-member backings and — through the persistent Fenwick
// weight index (fenwick.go) — every untouched bucket and weight subtree with
// its predecessor. Each delta key costs one lookup probe; only the buckets
// the delta touches get fresh headers, and each lands in the weight tree
// with one O(log #buckets) path copy. A key that opens a bucket adds one
// slot to the shared lookup instead of copying any map, and the lookup's one
// O(#buckets) rehash, each time the bucket count doubles, amortizes to O(1)
// per bucket. There is no bucket-order copy and no prefix-sum rebuild,
// which is what makes per-insert publication affordable on large tables.
// Appends to shared backing arrays are safe because exactly one writer
// extends them (serialized by Index.mu) and readers of older versions never
// index past their own length.

// merge returns a new table extending t with the bucket keys of the
// vectors t.N(), t.N()+1, ..., leaving t untouched for its readers. t must
// be the latest version of its table: the new version appends to backings
// and fills lookup slots that t shares, which only the latest version may
// extend.
func merge[K key](t *Table, keys []K) *Table {
	nt := *t // shares the key column, the lookup and the weight tree
	nt.n += len(keys)
	x := keysOf[K](&nt)
	x.keys = append(x.keys, keys...)
	// touched maps bucket index → this merge's private header, so a bucket
	// hit several times in one delta is copied (and re-published) once;
	// appended collects brand-new buckets at indices size0, size0+1, ...
	size0 := t.w.size
	touched := make(map[int32]*bucket, len(keys))
	var appended []*bucket
	for i, key := range keys {
		id := int32(t.n + i)
		bi, opened := x.bucketOf(key, id)
		if opened {
			b := &bucket{ids: []int32{id}}
			*keyOf[K](b) = key
			appended = append(appended, b)
			continue
		}
		var b *bucket
		if int(bi) >= size0 {
			b = appended[int(bi)-size0]
		} else if b = touched[bi]; b == nil {
			// First touch of a shared bucket: copy-on-write its header so
			// readers of t keep their length.
			cp := *t.w.at(int(bi))
			b = &cp
			touched[bi] = b
		}
		b.ids = append(b.ids, id)
	}
	nt.applyDelta(touched, appended)
	return &nt
}

// applyDelta publishes a merge's touched and appended buckets into the new
// table's weight tree. Small deltas take the incremental path: one O(log
// #buckets) path copy per bucket, sharing everything else with the
// predecessor. A delta touching a large fraction of the buckets flips to a
// bulk freeze — one O(#buckets) rebuild is cheaper than per-bucket path
// copies once d · log #buckets exceeds #buckets — so bulk loads never pay
// more than the old eager publication did.
func (t *Table) applyDelta(touched map[int32]*bucket, appended []*bucket) {
	size0 := t.w.size
	if d := len(touched) + len(appended); d*8 >= size0 {
		order := make([]*bucket, 0, size0+len(appended))
		t.w.walk(func(i int, b *bucket) bool {
			if tb := touched[int32(i)]; tb != nil {
				b = tb
			}
			order = append(order, b)
			return true
		})
		order = append(order, appended...)
		t.w = newFenwick(order)
		return
	}
	for bi, b := range touched {
		t.w.set(int(bi), b)
	}
	for _, b := range appended {
		t.w.push(b)
	}
}

// Insert hashes v into every table's pending delta and logically appends it
// to the collection, returning its id. Cost: ℓ·k hash evaluations plus O(1)
// appends; the mutation becomes visible to new readers at the next Snapshot
// (which the Index read methods take automatically). In narrow-key mode no
// strings are allocated. Safe for concurrent use with readers and other
// writers.
func (x *Index) Insert(v vecmath.Vector) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	cur := x.cur.Load()
	if len(x.scratch) < cur.k {
		x.scratch = make([]uint64, cur.k)
	}
	vals := x.scratch[:cur.k]
	id := cur.N() + len(x.pendData)
	x.pendData = append(x.pendData, v)
	bits := cur.family.Bits()
	for t := 0; t < cur.ell; t++ {
		cur.hashInto(t, v, vals)
		if cur.narrow {
			x.pend.u64[t] = append(x.pend.u64[t], packWord(vals, bits))
		} else {
			x.pend.str[t] = append(x.pend.str[t], packKey(vals, bits))
		}
	}
	x.npend.Add(1)
	if x.hook != nil {
		x.hook.OnInsert(id, v)
	}
	return id
}

// InsertBatch inserts vectors in order and returns the id of the first. The
// batch is signed by the signature engine — keyed-stream rows shared by the
// batch are computed once, and signing runs in parallel — so bulk loading
// costs far less than len(vs) repeated Inserts. Like Insert, the batch lands
// in the pending delta and is published by the next Snapshot.
func (x *Index) InsertBatch(vs []vecmath.Vector) int {
	sigs := x.signBatch(vs)
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.appendLocked(vs, sigs)
}

// CatchUp advances a replica of another index — a coordinator's copy of a
// shard, or a durable store's checkpoint replaying its delta log — to the
// source's published state. vs must be the vectors the source holds past
// this index's current ones, in id order. They are appended as InsertBatch
// appends them, signed by the batch engine, so no bucket keys need to
// travel with them, and published as one version stamped version, the
// source's own. Publish equivalence makes the result identical to the
// source's snapshot at that version, draw for draw, however the source
// split the vectors into versions; the persist package's
// FuzzCatchUpMatchesRestore and FuzzReplayMatchesStepwise pin this.
// version must be above the current one, vs must not be empty, and
// nothing may be pending.
func (x *Index) CatchUp(vs []vecmath.Vector, version uint64) (*Snapshot, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("lsh: catch-up to version %d carries no vectors", version)
	}
	sigs := x.signBatch(vs)
	x.mu.Lock()
	defer x.mu.Unlock()
	if cur := x.cur.Load().version; version <= cur {
		return nil, fmt.Errorf("lsh: catch-up to version %d does not advance version %d", version, cur)
	}
	if len(x.pendData) > 0 {
		return nil, fmt.Errorf("lsh: catch-up with %d inserts pending", len(x.pendData))
	}
	x.appendLocked(vs, sigs)
	s := x.publishLocked(version)
	// A run can be far longer than any delta published after it: drop its
	// pending backing arrays rather than hold them for the life of the index.
	x.pendData = nil
	x.pend = newSignatures(s.narrow, s.ell, 0)
	return s, nil
}

// signBatch signs vs outside the writer lock: the signatures are a pure
// function of (family, k, ℓ, vs) — all version-invariant — so a long batch
// never stalls readers that publish; only the appends serialize.
func (x *Index) signBatch(vs []vecmath.Vector) *signatures {
	if len(vs) == 0 {
		return nil
	}
	cur := x.cur.Load()
	return newEngine(cur.family, cur.k, cur.ell, SignConfig{}).sign(vs)
}

// appendLocked appends a signed batch to the pending delta and returns the
// id of its first vector. Callers must hold x.mu.
func (x *Index) appendLocked(vs []vecmath.Vector, sigs *signatures) int {
	cur := x.cur.Load()
	first := cur.N() + len(x.pendData)
	if len(vs) == 0 {
		return first
	}
	x.pendData = append(x.pendData, vs...)
	x.pend.append(sigs)
	x.npend.Add(int64(len(vs)))
	if x.hook != nil {
		x.hook.OnInsertBatch(first, vs)
	}
	return first
}
