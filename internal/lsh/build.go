package lsh

// Table construction. Build and restore share one serial walk over the
// per-vector bucket keys, and merges (dynamic.go) extend what it built.
// Each is written once for both key widths: bucket keys are uint64 words in
// narrow mode and packed strings in wide mode (see Table), and the helpers
// below reach a table's or a bucket's key of either width through a type
// assertion on a pointer: a type-word compare that never allocates.

// key is a bucket key: the packed machine word of a narrow-mode table, or
// the packed big-endian string of a wide-mode one.
type key interface{ uint64 | string }

// isWord reports whether K is the narrow-mode machine word.
func isWord[K key]() bool {
	var k K
	_, ok := any(k).(uint64)
	return ok
}

// keysOf returns t's key index of type K, which must match t's mode.
func keysOf[K key](t *Table) *keyIndex[K] {
	if x, ok := any(&t.words).(*keyIndex[K]); ok {
		return x
	}
	return any(&t.strs).(*keyIndex[K])
}

// keyOf returns a pointer to b's key of type K.
func keyOf[K key](b *bucket) *K {
	if p, ok := any(&b.key64).(*K); ok {
		return p
	}
	return any(&b.keyStr).(*K)
}

// parseKey inverts the canonical string form of a key of type K; s must
// have the mode's width.
func parseKey[K key](s string) K {
	var k K
	switch p := any(&k).(type) {
	case *uint64:
		*p, _ = parseKey64(s)
	case *string:
		*p = s
	}
	return k
}

// buildTable indexes one table over per-vector bucket keys, keys[i] being
// the key of vector i, and keeps keys as its key column. One serial walk
// numbers the buckets in first-appearance order — ascending first member
// id, the order the samplers and checkpoints depend on — with bucket
// headers carved from one backing slice whose capacity (#keys) bounds the
// distinct-key count, so append never reallocates and the *bucket pointers
// stay valid; the lookup (lookup.go) is sized for as many buckets, so the
// walk never rehashes it. Member ids are carved from one shared arena
// afterwards.
func buildTable[K key](keys []K, k, fnBase, bits int) *Table {
	t := &Table{k: k, fnBase: fnBase, n: len(keys), bits: bits, narrow: isWord[K]()}
	x := keysOf[K](t)
	*x = newKeyIndex(keys)
	bks := make([]bucket, 0, len(keys))
	order := make([]*bucket, 0, len(keys))
	vb := i32Pool.get(len(keys))
	for i, key := range keys {
		bi, opened := x.bucketOf(key, int32(i))
		if opened {
			bks = append(bks, bucket{})
			b := &bks[len(bks)-1]
			*keyOf[K](b) = key
			order = append(order, b)
		}
		vb[i] = bi
	}
	fillBucketIDs(order, vb[:len(keys)])
	i32Pool.put(vb)
	t.w = newFenwick(order)
	return t
}

// fillBucketIDs carves one shared int32 arena into per-bucket id slices. vb
// maps each vector id to its bucket index; walking vb in id order yields
// ascending ids per bucket. Each bucket's slice is capacity-clamped to its
// arena range, so a later dynamic append migrates that bucket onto its own
// backing instead of clobbering a neighbour.
func fillBucketIDs(order []*bucket, vb []int32) {
	counts := i32Pool.get(len(order))
	for i := range counts {
		counts[i] = 0
	}
	for _, bi := range vb {
		counts[bi]++
	}
	arena := make([]int32, len(vb))
	pos := int32(0)
	for bi, b := range order {
		c := counts[bi]
		b.ids = arena[pos : pos : pos+c]
		pos += c
	}
	for i, bi := range vb {
		b := order[bi]
		b.ids = append(b.ids, int32(i))
	}
	i32Pool.put(counts)
}
