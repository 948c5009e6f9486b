package lsh

// Persistent Fenwick weight index. The estimators sample buckets with
// probability proportional to their pair weight C(b_j, 2), which used to be
// served from an eager prefix-sum array rebuilt in O(#buckets) on every
// publish — the dominant cost of Index.Snapshot() and the blocker for
// per-insert publication on large tables. fenwick replaces that array with a
// path-copying binary indexed tree over the bucket sequence: leaf i carries
// bucket i and its pair weight, internal nodes carry subtree weight sums.
//
// The tree is persistent in the functional-data-structure sense. A published
// table holds one immutable root; updating leaf i allocates the O(log
// #buckets) nodes on the root-to-leaf path and shares every other subtree
// with the predecessor version, exactly the way bucket id slices and key
// backing arrays are already shared between consecutive snapshots. The tree's
// share of a merge of d delta keys is therefore O(d · log #buckets) node
// copies, instead of the old O(#buckets) prefix-sum and bucket-order copies;
// the shared bucket lookup (lookup.go) adds one probe per key and an
// O(#buckets) rehash only each time the bucket count doubles.
//
// All read operations (prefix sums, weighted search, positional lookup,
// in-order traversal) run against one root pointer and never mutate nodes,
// so they are safe for unsynchronized concurrent use on published trees.
// The mutating methods (set, push) replace only the fenwick value's root
// field; callers must own that value exclusively (merges operate on the new
// table's copy, serialized by Index.mu).

// wnode is one immutable tree node. Leaves (span 1) carry b; internal nodes
// carry children. A nil node is an all-zero, bucket-free subtree.
type wnode struct {
	sum  int64 // total pair weight of the node's span
	l, r *wnode
	b    *bucket // non-nil exactly at leaves
}

func wsum(n *wnode) int64 {
	if n == nil {
		return 0
	}
	return n.sum
}

// fenwick indexes the bucket sequence [0, size) under a power-of-two span.
// The zero value is an empty index. Copying the struct is the O(1)
// copy-on-write publication primitive: the copy shares every node until one
// side calls set or push.
type fenwick struct {
	root *wnode
	size int // bucket indices in use: [0, size)
	span int // power-of-two leaf capacity of root (0 when empty)
}

// newFenwick builds the index bottom-up over a freshly constructed bucket
// order in O(#buckets).
func newFenwick(order []*bucket) fenwick {
	n := len(order)
	if n == 0 {
		return fenwick{}
	}
	span := 1
	for span < n {
		span *= 2
	}
	// One arena backs every node of the fresh tree: n leaves plus at most
	// n-1+log2(span) internal nodes. The capacity is an upper bound, so
	// append never reallocates and handed-out pointers stay valid. Nodes are
	// immutable after construction (set and push path-copy), so sharing the
	// arena across snapshots is as safe as sharing individual nodes.
	arena := make([]wnode, 0, 2*n+64)
	var build func(lo, sp int) *wnode
	build = func(lo, sp int) *wnode {
		if lo >= n {
			return nil
		}
		if sp == 1 {
			b := order[lo]
			arena = append(arena, wnode{sum: pairs2(int64(len(b.ids))), b: b})
		} else {
			half := sp / 2
			l := build(lo, half)
			r := build(lo+half, half)
			arena = append(arena, wnode{sum: wsum(l) + wsum(r), l: l, r: r})
		}
		return &arena[len(arena)-1]
	}
	return fenwick{root: build(0, span), size: n, span: span}
}

// total returns the summed pair weight N_H in O(1).
func (f *fenwick) total() int64 { return wsum(f.root) }

// grow extends the root span to cover at least n leaves. Wrapping the old
// root as a left child is O(1) per doubling and shares the entire existing
// tree.
func (f *fenwick) grow(n int) {
	if f.span == 0 {
		f.span = 1
	}
	for f.span < n {
		if f.root != nil {
			f.root = &wnode{sum: f.root.sum, l: f.root}
		}
		f.span *= 2
	}
}

// set publishes bucket b (with its current pair weight) at index i,
// path-copying the O(log span) nodes from the root down and sharing every
// untouched subtree with the previous root.
func (f *fenwick) set(i int, b *bucket) {
	f.grow(i + 1)
	f.root = setRec(f.root, f.span, i, b)
	if i >= f.size {
		f.size = i + 1
	}
}

func setRec(n *wnode, sp, i int, b *bucket) *wnode {
	if sp == 1 {
		return &wnode{sum: pairs2(int64(len(b.ids))), b: b}
	}
	half := sp / 2
	var l, r *wnode
	if n != nil {
		l, r = n.l, n.r
	}
	if i < half {
		l = setRec(l, half, i, b)
	} else {
		r = setRec(r, half, i-half, b)
	}
	return &wnode{sum: wsum(l) + wsum(r), l: l, r: r}
}

// push appends b as bucket index size.
func (f *fenwick) push(b *bucket) { f.set(f.size, b) }

// at returns the bucket at index i (nil when out of range).
func (f *fenwick) at(i int) *bucket {
	if i < 0 || i >= f.size {
		return nil
	}
	n, sp := f.root, f.span
	for n != nil && sp > 1 {
		half := sp / 2
		if i < half {
			n = n.l
		} else {
			n = n.r
			i -= half
		}
		sp = half
	}
	if n == nil {
		return nil
	}
	return n.b
}

// prefix returns the cumulative pair weight of buckets [0, i] — the value the
// frozen cum[i] array used to hold — in O(log span).
func (f *fenwick) prefix(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= f.size {
		i = f.size - 1
	}
	var s int64
	n, sp := f.root, f.span
	for n != nil && sp > 1 {
		half := sp / 2
		if i < half {
			n = n.l
		} else {
			s += wsum(n.l)
			n = n.r
			i -= half
		}
		sp = half
	}
	return s + wsum(n)
}

// find returns the first bucket index whose cumulative weight exceeds x —
// the weighted-sampling descent, equivalent to sort.Search over the old
// prefix-sum array. Callers must ensure 0 ≤ x < total(); the descent can
// never land on a zero-weight leaf.
func (f *fenwick) find(x int64) (int, *bucket) {
	n, sp, lo := f.root, f.span, 0
	for sp > 1 {
		half := sp / 2
		if ls := wsum(n.l); x < ls {
			n = n.l
		} else {
			x -= ls
			n = n.r
			lo += half
		}
		sp = half
	}
	return lo, n.b
}

// walk visits buckets [0, size) in index order, stopping early when fn
// returns false.
func (f *fenwick) walk(fn func(i int, b *bucket) bool) {
	var rec func(n *wnode, lo, sp int) bool
	rec = func(n *wnode, lo, sp int) bool {
		if n == nil {
			return true
		}
		if sp == 1 {
			return fn(lo, n.b)
		}
		half := sp / 2
		return rec(n.l, lo, half) && rec(n.r, lo+half, half)
	}
	rec(f.root, 0, f.span)
}

// walkWeighted visits the buckets of positive pair weight in index order,
// passing each with the cumulative weight through it (prefix of its index).
// It never enters a zero-weight subtree, so it touches only the root paths
// of those buckets. It stops early when fn returns false.
func (f *fenwick) walkWeighted(fn func(cum int64, b *bucket) bool) {
	var cum int64
	var rec func(n *wnode, sp int) bool
	rec = func(n *wnode, sp int) bool {
		if wsum(n) == 0 {
			return true
		}
		if sp == 1 {
			cum += n.sum
			return fn(cum, n.b)
		}
		return rec(n.l, sp/2) && rec(n.r, sp/2)
	}
	rec(f.root, f.span)
}
