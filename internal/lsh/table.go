package lsh

import (
	"encoding/binary"
	"fmt"

	"lshjoin/internal/xrand"
)

// Table is one LSH hash table D_g, where g concatenates k hash functions of
// a Family. It is the paper's extended LSH table (§4.1.1): buckets carry
// their member counts, and the table maintains N_H = Σ_j C(b_j, 2) plus a
// persistent Fenwick weight index over the bucket sequence (fenwick.go) so
// that a uniform random pair from stratum H can be drawn in O(log #buckets).
//
// Storage comes in two modes. When the concatenated hash value fits in a
// machine word (k·Bits() ≤ 64 — SimHash up to k=64, MinHash up to k=2) the
// table keys buckets by uint64, so neither construction nor lookup allocates
// key strings. Wider configurations fall back to the packed string keys of
// packKey. One generic code path (build.go) serves both modes, and both
// expose the same canonical string form through KeyOf / BucketIDs /
// ForEachBucket.
//
// A Table is immutable once published: construction (build.go) and delta
// merging (dynamic.go) always produce a fresh value and never change what a
// table that readers may already hold can see, so every method here is safe
// for unsynchronized concurrent use. Bucket lookup goes through one
// open-addressing array that every version of the table shares (lookup.go):
// merges only add entries, for buckets past the bucket count of every
// version already published, and each version ignores the entries beyond
// its own count. The buckets themselves, in their deterministic
// first-appearance order, live in the leaves of the weight tree, which
// consecutive versions share structurally — a merge path-copies only the
// touched leaves' root paths instead of copying the bucket order and
// rebuilding prefix sums.
type Table struct {
	k      int
	fnBase int // hash function indices used: [fnBase, fnBase+k)
	n      int
	bits   int  // bit width of each hash value
	narrow bool // uint64 key mode

	words keyIndex[uint64] // narrow mode
	strs  keyIndex[string] // wide mode

	w fenwick // bucket sequence + pair weights, shared across versions
}

type bucket struct {
	key64  uint64 // narrow mode
	keyStr string // wide mode
	ids    []int32
}

// pairs2 returns C(b, 2) without overflow for b up to ~3e9.
func pairs2(b int64) int64 { return b * (b - 1) / 2 }

// isNarrow reports whether k hash values of the given width pack into one
// machine word.
func isNarrow(k, bits int) bool { return k*bits <= 64 }

// keyString renders the canonical string form of b's key.
func (b *bucket) keyString(narrow bool) string {
	if narrow {
		return key64String(b.key64)
	}
	return b.keyStr
}

// N returns the number of indexed vectors.
func (t *Table) N() int { return t.n }

// K returns the number of hash functions concatenated into g.
func (t *Table) K() int { return t.k }

// FnBase returns the index of the first hash function used by this table.
func (t *Table) FnBase() int { return t.fnBase }

// Narrow reports whether the table uses machine-word bucket keys.
func (t *Table) Narrow() bool { return t.narrow }

// NumBuckets returns the number of non-empty buckets n_g.
func (t *Table) NumBuckets() int { return t.w.size }

// M returns the total number of unordered vector pairs C(n, 2).
func (t *Table) M() int64 { return pairs2(int64(t.n)) }

// NH returns N_H = Σ_j C(b_j, 2), the number of pairs sharing a bucket
// (the weight tree's root sum, O(1)).
func (t *Table) NH() int64 { return t.w.total() }

// NL returns N_L = M − N_H, the number of pairs not sharing a bucket.
func (t *Table) NL() int64 { return t.M() - t.w.total() }

// KeyOf returns the bucket key of vector i in canonical string form (the
// 8-byte big-endian packed word in narrow mode).
func (t *Table) KeyOf(i int) string {
	if t.narrow {
		return key64String(t.words.keys[i])
	}
	return t.strs.keys[i]
}

// SameBucket reports whether vectors i and j hash to the same bucket,
// i.e. whether the pair (i, j) belongs to stratum H of this table.
func (t *Table) SameBucket(i, j int) bool {
	if t.narrow {
		return t.words.keys[i] == t.words.keys[j]
	}
	return t.strs.keys[i] == t.strs.keys[j]
}

// SameBucketAcross reports whether vector i of this table and vector j of
// table u hash to the same bucket key. The tables must share k, fnBase and
// bit width (true for the same table index of two shard snapshots); narrow
// mode compares machine words without allocating.
func (t *Table) SameBucketAcross(i int, u *Table, j int) bool {
	if t.narrow && u.narrow {
		return t.words.keys[i] == u.words.keys[j]
	}
	return t.KeyOf(i) == u.KeyOf(j)
}

// BucketIDs returns the member ids of the bucket with the given key in
// canonical string form (nil if absent). Callers must not modify the
// returned slice.
func (t *Table) BucketIDs(key string) []int32 {
	if !t.narrow {
		return bucketIDs(t, key)
	}
	if w, ok := parseKey64(key); ok {
		return bucketIDs(t, w)
	}
	return nil
}

// bucketIDs returns the member ids of the bucket keyed by k (nil if absent).
func bucketIDs[K key](t *Table, k K) []int32 {
	if bi, ok := keysOf[K](t).lookup(k); ok {
		return t.w.at(int(bi)).ids
	}
	return nil
}

// BucketSizes returns the multiset of bucket counts b_j in deterministic
// order.
func (t *Table) BucketSizes() []int {
	out := make([]int, 0, t.w.size)
	t.w.walk(func(_ int, b *bucket) bool {
		out = append(out, len(b.ids))
		return true
	})
	return out
}

// MaxBucket returns the largest bucket count (0 for an empty table).
func (t *Table) MaxBucket() int {
	max := 0
	t.w.walk(func(_ int, b *bucket) bool {
		if len(b.ids) > max {
			max = len(b.ids)
		}
		return true
	})
	return max
}

// SamplePair draws a uniform random pair from stratum H: a bucket B_j chosen
// with weight C(b_j, 2) by descending the weight tree, then a uniform
// distinct pair inside it. ok is false when the table has no co-located
// pairs (N_H = 0). The descent consumes the same RNG stream and selects the
// same bucket as the former prefix-sum binary search.
func (t *Table) SamplePair(rng *xrand.RNG) (i, j int, ok bool) {
	nh := t.w.total()
	if nh == 0 {
		return 0, 0, false
	}
	x := int64(rng.Uint64n(uint64(nh)))
	_, bk := t.w.find(x)
	ids := bk.ids
	a := rng.Intn(len(ids))
	b := rng.Intn(len(ids) - 1)
	if b >= a {
		b++
	}
	return int(ids[a]), int(ids[b]), true
}

// ForEachPairBucket calls fn, in bucket order, for every bucket of at least
// two members — the buckets that hold stratum H — with cum the cumulative
// pair weight Σ C(b_j, 2) through that bucket. The walk skips the weight
// tree's zero-weight subtrees, so its cost follows the number of such
// buckets, not #buckets. SamplePair's descent picks, for x ∈ [0, N_H), the
// listed bucket with the smallest cum > x. It stops early if fn returns
// false; callers must not modify ids.
func (t *Table) ForEachPairBucket(fn func(cum int64, ids []int32) bool) {
	t.w.walkWeighted(func(cum int64, b *bucket) bool { return fn(cum, b.ids) })
}

// ForEachIntraPair calls fn for every unordered pair (i, j), i < j, sharing a
// bucket. It stops early if fn returns false. This exact enumeration costs
// Θ(N_H) and backs the probability tables of the evaluation (Tables 1–2).
func (t *Table) ForEachIntraPair(fn func(i, j int32) bool) {
	t.ForEachPairBucket(func(_ int64, ids []int32) bool {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				if !fn(ids[x], ids[y]) {
					return false
				}
			}
		}
		return true
	})
}

// ForEachBucket calls fn for every bucket in deterministic order with the
// canonical string key; it stops early if fn returns false.
func (t *Table) ForEachBucket(fn func(key string, ids []int32) bool) {
	t.w.walk(func(_ int, b *bucket) bool {
		return fn(b.keyString(t.narrow), b.ids)
	})
}

// SizeBytes estimates the space of the extended LSH table using the paper's
// accounting (§6.3): per bucket, the g value (key) plus a bucket count, plus
// one 4-byte id per member. Go map/runtime overheads are deliberately
// excluded to mirror "ignoring implementation-dependent overheads".
func (t *Table) SizeBytes() int64 {
	var s int64
	t.w.walk(func(_ int, b *bucket) bool {
		keyBytes := int64(8)
		if !t.narrow {
			keyBytes = int64(len(b.keyStr))
		}
		s += keyBytes + 8 + 4*int64(len(b.ids))
		return true
	})
	return s
}

// packWord packs k hash values, each using `bits` low bits, into one machine
// word; callers must have checked isNarrow(k, bits).
func packWord(vals []uint64, bits int) uint64 {
	var w uint64
	for _, v := range vals {
		w = w<<uint(bits) | v
	}
	return w
}

// key64String renders a machine-word key in the canonical 8-byte big-endian
// string form, matching what packKey produces for the same values.
func key64String(w uint64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], w)
	return string(buf[:])
}

// parseKey64 inverts key64String without allocating.
func parseKey64(key string) (uint64, bool) {
	if len(key) != 8 {
		return 0, false
	}
	return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 |
		uint64(key[3])<<32 | uint64(key[4])<<24 | uint64(key[5])<<16 |
		uint64(key[6])<<8 | uint64(key[7]), true
}

// packKey encodes k hash values, each using `bits` low bits, into a compact
// string key. When everything fits in 64 bits the key is the 8-byte
// big-endian packed word; otherwise it is the concatenation of 8-byte words.
func packKey(vals []uint64, bits int) string {
	if bits*len(vals) <= 64 {
		return key64String(packWord(vals, bits))
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[8*i:], v)
	}
	return string(buf)
}

// validateParams checks the (k, ℓ) configuration against a family, which
// must be one the signature engine signs.
func validateParams(f Family, k, ell int) error {
	if f == nil {
		return fmt.Errorf("lsh: nil family")
	}
	if k < 1 {
		return fmt.Errorf("lsh: k must be ≥ 1, got %d", k)
	}
	if ell < 1 {
		return fmt.Errorf("lsh: ℓ must be ≥ 1, got %d", ell)
	}
	switch f.(type) {
	case SimHash, MinHash:
	default:
		return fmt.Errorf("lsh: family %s has no signing engine", f.Name())
	}
	if f.Bits() < 1 || f.Bits() > 64 {
		return fmt.Errorf("lsh: family %s has invalid bit width %d", f.Name(), f.Bits())
	}
	return nil
}
