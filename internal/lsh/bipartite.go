package lsh

import (
	"fmt"
	"sort"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Bipartite supports general (non-self) joins between two collections U and
// V per App. B.2.2: both sides are hashed with the same g, stratum H is the
// set of cross pairs whose buckets share a g value, and
// N_H = Σ b_j·c_i over matching buckets B_j ∈ D_g, C_i ∈ E_g.
type Bipartite struct {
	left, right *Snapshot // single-table index views sharing family, k and fn range
	table       int
	ltab, rtab  *Table

	matches []bucketMatch
	cum     []int64
	nh      int64
}

type bucketMatch struct {
	left, right []int32
}

// NewBipartite pairs table t of two index snapshots built with the same
// family seed, k and ℓ. It validates that the two sides use identical hash
// functions. Like everything snapshot-backed, the matching is immutable and
// safe for concurrent use.
func NewBipartite(left, right *Snapshot, t int) (*Bipartite, error) {
	if left.Family() != right.Family() {
		return nil, fmt.Errorf("lsh: bipartite requires identical families on both sides")
	}
	if left.K() != right.K() {
		return nil, fmt.Errorf("lsh: bipartite k mismatch: %d vs %d", left.K(), right.K())
	}
	if t < 0 || t >= left.L() || t >= right.L() {
		return nil, fmt.Errorf("lsh: table %d out of range", t)
	}
	b := &Bipartite{left: left, right: right, table: t,
		ltab: left.Table(t), rtab: right.Table(t)}
	if b.ltab.narrow {
		b.matches = matchBuckets[uint64](b.ltab, b.rtab)
	} else {
		b.matches = matchBuckets[string](b.ltab, b.rtab)
	}
	b.cum = make([]int64, len(b.matches))
	var total int64
	for i, m := range b.matches {
		total += int64(len(m.left)) * int64(len(m.right))
		b.cum[i] = total
	}
	b.nh = total
	return b, nil
}

// M returns the total number of cross pairs |U|·|V|.
func (b *Bipartite) M() int64 {
	return int64(b.left.N()) * int64(b.right.N())
}

// NH returns the number of cross pairs whose buckets share a g value.
func (b *Bipartite) NH() int64 { return b.nh }

// NL returns M − N_H.
func (b *Bipartite) NL() int64 { return b.M() - b.nh }

// SameBucket reports whether u ∈ U and v ∈ V have equal g values. In narrow
// mode this is a machine-word compare with no allocation (the estimators'
// stratum-L rejection sampler calls it per candidate pair).
func (b *Bipartite) SameBucket(u, v int) bool {
	if b.ltab.narrow {
		return b.ltab.words.keys[u] == b.rtab.words.keys[v]
	}
	return b.ltab.strs.keys[u] == b.rtab.strs.keys[v]
}

// matchBuckets lists the buckets of l whose key r also holds, paired with
// r's bucket, in l's bucket order.
func matchBuckets[K key](l, r *Table) []bucketMatch {
	rx := keysOf[K](r)
	var out []bucketMatch
	l.w.walk(func(_ int, lb *bucket) bool {
		if bi, ok := rx.lookup(*keyOf[K](lb)); ok {
			out = append(out, bucketMatch{left: lb.ids, right: r.w.at(int(bi)).ids})
		}
		return true
	})
	return out
}

// SamplePair draws a uniform random cross pair from stratum H: a matched
// bucket pair with weight b_j·c_i, then uniform members on each side.
func (b *Bipartite) SamplePair(rng *xrand.RNG) (u, v int, ok bool) {
	if b.nh == 0 {
		return 0, 0, false
	}
	x := int64(rng.Uint64n(uint64(b.nh)))
	i := sort.Search(len(b.cum), func(k int) bool { return b.cum[k] > x })
	m := b.matches[i]
	return int(m.left[rng.Intn(len(m.left))]), int(m.right[rng.Intn(len(m.right))]), true
}

// ForEachIntraPair enumerates every cross pair in stratum H. Θ(N_H).
func (b *Bipartite) ForEachIntraPair(fn func(u, v int32) bool) {
	for _, m := range b.matches {
		for _, u := range m.left {
			for _, v := range m.right {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// Sim returns the family similarity between u ∈ U and v ∈ V.
func (b *Bipartite) Sim(u, v int) float64 {
	return b.left.Family().Sim(b.leftVec(u), b.rightVec(v))
}

func (b *Bipartite) leftVec(u int) vecmath.Vector  { return b.left.Data()[u] }
func (b *Bipartite) rightVec(v int) vecmath.Vector { return b.right.Data()[v] }

// LeftN and RightN return the collection sizes.
func (b *Bipartite) LeftN() int  { return b.left.N() }
func (b *Bipartite) RightN() int { return b.right.N() }
