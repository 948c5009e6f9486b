package lsh

import (
	"testing"

	"lshjoin/internal/xrand"
)

// mkBucket returns a bucket with the given member count (ids content is
// irrelevant to the weight tree, which only reads len(ids)).
func mkBucket(size int) *bucket {
	return &bucket{ids: make([]int32, size)}
}

// fenwickOracle is the naive flat-array model the tree must agree with.
type fenwickOracle struct {
	sizes []int
}

func (o *fenwickOracle) total() int64 {
	var s int64
	for _, sz := range o.sizes {
		s += pairs2(int64(sz))
	}
	return s
}

func (o *fenwickOracle) prefix(i int) int64 {
	var s int64
	if i >= len(o.sizes) {
		i = len(o.sizes) - 1
	}
	for j := 0; j <= i; j++ {
		s += pairs2(int64(o.sizes[j]))
	}
	return s
}

func (o *fenwickOracle) find(x int64) int {
	var s int64
	for j, sz := range o.sizes {
		s += pairs2(int64(sz))
		if s > x {
			return j
		}
	}
	return -1
}

// checkAgainstOracle compares every observable of the tree with the flat
// model: total, per-index bucket identity and prefix sums, in-order walk,
// and the weighted-search descent for a spread of x values.
func checkAgainstOracle(t *testing.T, f *fenwick, o *fenwickOracle) {
	t.Helper()
	if f.size != len(o.sizes) {
		t.Fatalf("size %d, oracle %d", f.size, len(o.sizes))
	}
	if f.total() != o.total() {
		t.Fatalf("total %d, oracle %d", f.total(), o.total())
	}
	for i := range o.sizes {
		b := f.at(i)
		if b == nil || len(b.ids) != o.sizes[i] {
			t.Fatalf("at(%d): got %v, want size %d", i, b, o.sizes[i])
		}
		if got, want := f.prefix(i), o.prefix(i); got != want {
			t.Fatalf("prefix(%d) = %d, want %d", i, got, want)
		}
	}
	visited := 0
	f.walk(func(i int, b *bucket) bool {
		if i != visited {
			t.Fatalf("walk visited index %d, want %d", i, visited)
		}
		if len(b.ids) != o.sizes[i] {
			t.Fatalf("walk index %d: size %d, want %d", i, len(b.ids), o.sizes[i])
		}
		visited++
		return true
	})
	if visited != len(o.sizes) {
		t.Fatalf("walk visited %d buckets, want %d", visited, len(o.sizes))
	}
	// The pruned walk lists exactly the positive-weight buckets, in order,
	// each with its prefix sum.
	next := 0
	f.walkWeighted(func(cum int64, b *bucket) bool {
		for next < len(o.sizes) && o.sizes[next] < 2 {
			next++
		}
		if next == len(o.sizes) {
			t.Fatalf("walkWeighted visited a bucket past the last weighted one")
		}
		if b != f.at(next) || cum != o.prefix(next) {
			t.Fatalf("walkWeighted: bucket of size %d with cum %d, want index %d (cum %d)", len(b.ids), cum, next, o.prefix(next))
		}
		next++
		return true
	})
	for ; next < len(o.sizes); next++ {
		if o.sizes[next] >= 2 {
			t.Fatalf("walkWeighted skipped weighted index %d", next)
		}
	}
	if tot := f.total(); tot > 0 {
		// Probe the descent at stratum boundaries and interior points.
		xs := []int64{0, tot - 1, tot / 2, tot / 3, 2 * tot / 3}
		for _, x := range xs {
			gi, gb := f.find(x)
			wi := o.find(x)
			if gi != wi {
				t.Fatalf("find(%d) = %d, oracle %d", x, gi, wi)
			}
			if gb == nil || len(gb.ids) != o.sizes[wi] {
				t.Fatalf("find(%d) bucket size mismatch at %d", x, wi)
			}
		}
	}
}

// TestFenwickBuildMatchesOracle: bottom-up construction over assorted sizes,
// including non-power-of-two bucket counts and zero-weight (singleton)
// buckets.
func TestFenwickBuildMatchesOracle(t *testing.T) {
	rng := xrand.New(501)
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 64, 100, 1023} {
		order := make([]*bucket, n)
		o := &fenwickOracle{sizes: make([]int, n)}
		for i := range order {
			sz := rng.Intn(6) // frequent 0/1-weight buckets
			order[i] = mkBucket(sz)
			o.sizes[i] = sz
		}
		f := newFenwick(order)
		checkAgainstOracle(t, &f, o)
	}
}

// TestFenwickPersistence: a copied fenwick value must keep answering over
// its own version while the successor pushes and re-sets buckets.
func TestFenwickPersistence(t *testing.T) {
	order := []*bucket{mkBucket(3), mkBucket(1), mkBucket(5)}
	v1 := newFenwick(order)
	o1 := &fenwickOracle{sizes: []int{3, 1, 5}}

	v2 := v1 // O(1) copy-on-write publication
	v2.set(1, mkBucket(4))
	for i := 0; i < 10; i++ {
		v2.push(mkBucket(i % 3))
	}
	o2 := &fenwickOracle{sizes: []int{3, 4, 5, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0}}

	checkAgainstOracle(t, &v1, o1) // untouched by v2's mutations
	checkAgainstOracle(t, &v2, o2)
}

// TestFenwickGrowFromEmpty: pushing through capacity doublings starting from
// the zero value (the empty-base merge path the fuzzers hit).
func TestFenwickGrowFromEmpty(t *testing.T) {
	var f fenwick
	o := &fenwickOracle{}
	for i := 0; i < 300; i++ {
		sz := (i * 7) % 9
		f.push(mkBucket(sz))
		o.sizes = append(o.sizes, sz)
	}
	checkAgainstOracle(t, &f, o)
}

// TestFenwickFindSkipsZeroWeights: the descent must never land on a bucket
// with fewer than two members, mirroring sort.Search over strict prefix
// sums.
func TestFenwickFindSkipsZeroWeights(t *testing.T) {
	sizes := []int{0, 1, 4, 0, 1, 2, 1, 0, 3}
	order := make([]*bucket, len(sizes))
	for i, sz := range sizes {
		order[i] = mkBucket(sz)
	}
	f := newFenwick(order)
	for x := int64(0); x < f.total(); x++ {
		i, b := f.find(x)
		if len(b.ids) < 2 {
			t.Fatalf("find(%d) landed on zero-weight bucket %d", x, i)
		}
		want := (&fenwickOracle{sizes: sizes}).find(x)
		if i != want {
			t.Fatalf("find(%d) = %d, oracle %d", x, i, want)
		}
	}
}

// FuzzFenwickWeights drives arbitrary push / re-set / query interleavings
// against the naive flat-array oracle. Each input byte pair is one op:
// push a bucket, grow an existing bucket, or shrink-replace one.
func FuzzFenwickWeights(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 1, 2, 4})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 1, 0, 2, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fw fenwick
		o := &fenwickOracle{}
		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p]%3, int(data[p+1])
			switch {
			case op == 0 || len(o.sizes) == 0:
				sz := arg % 17
				fw.push(mkBucket(sz))
				o.sizes = append(o.sizes, sz)
			case op == 1: // grow bucket arg by one member
				i := arg % len(o.sizes)
				o.sizes[i]++
				fw.set(i, mkBucket(o.sizes[i]))
			default: // replace bucket arg with a fresh size
				i := arg % len(o.sizes)
				o.sizes[i] = (arg / 3) % 11
				fw.set(i, mkBucket(o.sizes[i]))
			}
		}
		checkAgainstOracle(t, &fw, o)
	})
}
