package lsh

import (
	"hash/maphash"
	"sync/atomic"
)

// Bucket lookup. Every version of a table resolves bucket keys through one
// open-addressing hash table that all versions share. Buckets only ever
// append, and the one writer (serialized by Index.mu) fills slots without
// ever changing or freeing one, so a slot, once written, holds the same
// entry for the life of its array. A version trusts only the entries whose
// bucket index lies below its own bucket count: an entry a later version
// added is skipped like a hash collision. Opening a bucket therefore costs
// one probe, not a copy of any map, and the array is rehashed into a fresh
// one of twice the size each time the bucket count doubles.
//
// Each slot packs the high 32 bits of the key's hash above its bucket's
// index plus one, so 0 marks a free slot; probing is linear at a load of at
// most 1/2. The writer appends the bucket's first member id to first before it
// stores the slot, so a reader of an older version that probes a slot being
// filled sees either 0 or a bucket index past its own bucket count. And as
// linear probing never frees a slot, no key a version holds sits behind a
// slot filled after that version: every probe it makes ends where it would
// have ended when the version was published.

// minSlots is the smallest lookup array, so the slot mask is never empty.
const minSlots = 8

// keyIndex is a table's width-dependent state: the per-vector key column
// and the bucket lookup.
type keyIndex[K key] struct {
	keys  []K             // per-vector bucket key, index = vector id
	first []int32         // each bucket's first member id; len = the version's bucket count
	slots []atomic.Uint64 // hash tag<<32 | bucket index+1, shared with other versions
}

// lookupSeed seeds the hash of both key widths, so a key set cannot be
// chosen to collide in every process.
var (
	lookupSeed = maphash.MakeSeed()
	wordSeed   = maphash.String(lookupSeed, "")
)

// hashKey hashes *k for the lookup: narrow keys through a multiply-xorshift
// finalizer, wide ones through maphash.
func hashKey[K key](k *K) uint64 {
	if w, ok := any(k).(*uint64); ok {
		h := *w ^ wordSeed
		h = (h ^ h>>33) * 0xff51afd7ed558ccd
		h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
		return h ^ h>>33
	}
	return maphash.String(lookupSeed, *any(k).(*string))
}

// newKeyIndex returns the key index of a table built over keys, with a
// lookup sized for as many buckets as keys and no bucket yet.
func newKeyIndex[K key](keys []K) keyIndex[K] {
	n := minSlots
	for n < 2*len(keys) {
		n *= 2
	}
	return keyIndex[K]{keys: keys, first: make([]int32, 0, len(keys)), slots: make([]atomic.Uint64, n)}
}

// probe returns the index of the bucket keyed k, whose hash is h, or -1 and
// the free slot that ends k's probe sequence.
func (x *keyIndex[K]) probe(k K, h uint64) (bi int32, free uint64) {
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i].Load()
		if s == 0 {
			return -1, i
		}
		if s>>32 != h>>32 {
			continue
		}
		if bi := int(uint32(s)) - 1; bi < len(x.first) && x.keys[x.first[bi]] == k {
			return int32(bi), 0
		}
	}
}

// lookup resolves a key to its bucket index in this version.
func (x *keyIndex[K]) lookup(k K) (int32, bool) {
	bi, _ := x.probe(k, hashKey(&k))
	return bi, bi >= 0
}

// bucketOf returns the index of the bucket keyed k, opening one whose first
// member is id, with opened true, when the version holds none. Only the
// writer of the latest version may call it.
func (x *keyIndex[K]) bucketOf(k K, id int32) (bi int32, opened bool) {
	h := hashKey(&k)
	bi, free := x.probe(k, h)
	if bi >= 0 {
		return bi, false
	}
	if 2*(len(x.first)+1) > len(x.slots) {
		x.regrow()
		_, free = x.probe(k, h)
	}
	bi = int32(len(x.first))
	x.first = append(x.first, id)
	x.slots[free].Store(h>>32<<32 | uint64(bi+1))
	return bi, true
}

// regrow rehashes every bucket into a fresh array of twice the slots. Only
// the version being built points at the new array; older versions keep
// probing the old one, which nothing writes again.
func (x *keyIndex[K]) regrow() {
	slots := make([]atomic.Uint64, 2*len(x.slots))
	mask := uint64(len(slots) - 1)
	for bi, id := range x.first {
		h := hashKey(&x.keys[id])
		i := h & mask
		for slots[i].Load() != 0 {
			i = (i + 1) & mask
		}
		slots[i].Store(h>>32<<32 | uint64(bi+1))
	}
	x.slots = slots
}
