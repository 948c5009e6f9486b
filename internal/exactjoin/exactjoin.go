// Package exactjoin computes exact vector similarity join results. It is
// the ground truth against which every estimator in lshjoin is evaluated,
// and doubles as the exact join-processing substrate whose cost the paper's
// motivating query optimizer would weigh against alternative plans.
//
// Two engines are provided:
//
//   - Joiner.Counts / Joiner.Histogram: exact pair counts above thresholds
//     via inverted-index score accumulation (doc-at-a-time with epoch
//     accumulators), O(Σ_t df(t)²) instead of O(n²·nnz).
//   - Joiner.Pairs: materializes all pairs above a threshold using the
//     All-Pairs style prefix filter (Bayardo et al.) with a max-weight bound.
//
// BruteForceCount is the O(n²) reference used by tests to validate both.
package exactjoin

import (
	"fmt"
	"sort"

	"lshjoin/internal/vecmath"
)

// Joiner precomputes normalized vectors and an inverted index over one
// collection. Build once, query many thresholds.
type Joiner struct {
	n        int
	normed   []vecmath.Vector
	postings map[uint32][]posting // dim → postings sorted by doc id
}

type posting struct {
	doc    int32
	weight float32
}

// NewJoiner normalizes data to unit vectors (zero vectors stay zero; they
// match nothing since cos with a zero vector is defined as 0) and builds the
// inverted index.
func NewJoiner(data []vecmath.Vector) *Joiner {
	j := &Joiner{
		n:        len(data),
		normed:   make([]vecmath.Vector, len(data)),
		postings: make(map[uint32][]posting),
	}
	for i, v := range data {
		nv := v.Normalized()
		j.normed[i] = nv
		for _, e := range nv.Entries() {
			j.postings[e.Dim] = append(j.postings[e.Dim], posting{doc: int32(i), weight: e.Weight})
		}
	}
	return j
}

// N returns the collection size.
func (j *Joiner) N() int { return j.n }

// M returns the number of unordered pairs C(n, 2).
func (j *Joiner) M() int64 { return int64(j.n) * int64(j.n-1) / 2 }

// CheckThreshold rejects a join threshold outside (0, 1], NaN included —
// the rule the estimators apply, so exact and estimated joins accept the
// same thresholds.
func CheckThreshold(tau float64) error {
	if !(tau > 0 && tau <= 1) {
		return fmt.Errorf("exactjoin: threshold must be in (0, 1], got %v", tau)
	}
	return nil
}

// Counts returns, for each threshold, the exact number of unordered pairs
// (u, v), u ≠ v with cos(u, v) ≥ τ. Thresholds must be strictly positive
// (pairs with no shared dimension have cos = 0 and are never enumerated) and
// are handled in one accumulation pass regardless of how many there are.
func (j *Joiner) Counts(thresholds []float64) ([]int64, error) {
	for _, t := range thresholds {
		if err := CheckThreshold(t); err != nil {
			return nil, err
		}
	}
	sorted := append([]float64(nil), thresholds...)
	sort.Float64s(sorted)
	// bins[i] counts pairs with sorted[i] ≤ sim < sorted[i+1].
	bins := make([]int64, len(sorted))
	j.scan(func(sim float64) {
		// Index of the largest threshold ≤ sim.
		i := sort.SearchFloat64s(sorted, sim)
		if i < len(sorted) && sorted[i] == sim {
			// sim exactly equals a threshold: it belongs to that bin.
		} else {
			i--
		}
		if i >= 0 {
			if i >= len(bins) {
				i = len(bins) - 1
			}
			bins[i]++
		}
	})
	// Suffix sums: count at sorted[i] = Σ_{k ≥ i} bins[k].
	suffix := make([]int64, len(sorted))
	var acc int64
	for i := len(sorted) - 1; i >= 0; i-- {
		acc += bins[i]
		suffix[i] = acc
	}
	out := make([]int64, len(thresholds))
	for i, t := range thresholds {
		k := sort.SearchFloat64s(sorted, t)
		out[i] = suffix[k]
	}
	return out, nil
}

// CountAt returns the exact join size at a single threshold.
func (j *Joiner) CountAt(tau float64) (int64, error) {
	c, err := j.Counts([]float64{tau})
	if err != nil {
		return 0, err
	}
	return c[0], nil
}

// Histogram returns counts of pair similarities falling into
// [edges[i], edges[i+1]) for i < len(edges)-1, with the last bin closed at 1.
// Edges must be ascending and start above 0.
func (j *Joiner) Histogram(edges []float64) ([]int64, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("exactjoin: need at least two edges")
	}
	for i, e := range edges {
		if err := CheckThreshold(e); err != nil {
			return nil, err
		}
		if i > 0 && e <= edges[i-1] {
			return nil, fmt.Errorf("exactjoin: edges must be strictly ascending")
		}
	}
	bins := make([]int64, len(edges)-1)
	j.scan(func(sim float64) {
		i := sort.SearchFloat64s(edges, sim)
		if i < len(edges) && edges[i] == sim {
			// exact edge belongs to the bin it opens
		} else {
			i--
		}
		if i < 0 {
			return
		}
		if i >= len(bins) {
			i = len(bins) - 1 // sim == 1 on the closing edge
		}
		bins[i]++
	})
	return bins, nil
}

// scan invokes fn once per unordered pair with positive dot product, passing
// the exact cosine similarity. Pairs with zero overlap are never visited.
func (j *Joiner) scan(fn func(sim float64)) {
	acc := make([]float64, j.n)
	epoch := make([]int32, j.n)
	touched := make([]int32, 0, 1024)
	var cur int32
	// Process docs in increasing id; postings are naturally sorted by id, so
	// accumulating only over postings with doc < u covers each pair once.
	for u := 0; u < j.n; u++ {
		cur++
		touched = touched[:0]
		for _, e := range j.normed[u].Entries() {
			for _, p := range j.postings[e.Dim] {
				if int(p.doc) >= u {
					break
				}
				if epoch[p.doc] != cur {
					epoch[p.doc] = cur
					acc[p.doc] = 0
					touched = append(touched, p.doc)
				}
				acc[p.doc] += float64(e.Weight) * float64(p.weight)
			}
		}
		for _, v := range touched {
			s := acc[v]
			// Normalized weights are float32, so a duplicate pair accumulates
			// to 1 ± ~1e-6; snap so τ = 1.0 counts duplicates exactly.
			if s > 1-5e-6 {
				s = 1
			}
			if s > 0 {
				fn(s)
			}
		}
	}
}

// Pair is an unordered result pair with its similarity.
type Pair struct {
	U, V int32
	Sim  float64
}

// Pairs materializes every pair with cos ≥ tau using the All-Pairs prefix
// filter (Bayardo et al.): per-document entries are ordered rare-feature
// first, a document indexes only the leading entries whose remaining suffix
// could still reach tau against any other document (bounded by per-dimension
// max weights), and candidates are verified with a full dot product. With
// frequent features relegated to the unindexed suffix, their huge posting
// lists never generate candidates.
func (j *Joiner) Pairs(tau float64) ([]Pair, error) {
	if err := CheckThreshold(tau); err != nil {
		return nil, err
	}
	// Per-dimension max weight over the normalized collection.
	maxw := make(map[uint32]float64, len(j.postings))
	for dim, ps := range j.postings {
		m := 0.0
		for _, p := range ps {
			if w := float64(p.weight); w > m {
				m = w
			}
		}
		maxw[dim] = m
	}
	// Per-document entries reordered by ascending document frequency so that
	// the indexed prefix holds the rarest (cheapest) features.
	ordered := make([][]vecmath.Entry, j.n)
	for u := 0; u < j.n; u++ {
		es := append([]vecmath.Entry(nil), j.normed[u].Entries()...)
		sort.Slice(es, func(a, b int) bool {
			da, db := len(j.postings[es[a].Dim]), len(j.postings[es[b].Dim])
			if da != db {
				return da < db
			}
			return es[a].Dim < es[b].Dim
		})
		ordered[u] = es
	}
	type idxEntry struct {
		doc    int32
		weight float32
	}
	index := make(map[uint32][]idxEntry)
	acc := make([]float64, j.n)
	epoch := make([]int32, j.n)
	touched := make([]int32, 0, 256)
	var cur int32
	var out []Pair
	for u := 0; u < j.n; u++ {
		uv := j.normed[u]
		cur++
		touched = touched[:0]
		// Candidate generation: match all of u's dims against indexed prefixes.
		for _, e := range uv.Entries() {
			for _, p := range index[e.Dim] {
				if epoch[p.doc] != cur {
					epoch[p.doc] = cur
					acc[p.doc] = 0
					touched = append(touched, p.doc)
				}
				acc[p.doc] += float64(e.Weight) * float64(p.weight)
			}
		}
		for _, v := range touched {
			if acc[v] <= 0 {
				continue
			}
			s := vecmath.Dot(uv, j.normed[v])
			if s > 1-5e-6 {
				s = 1
			}
			if s >= tau {
				out = append(out, Pair{U: v, V: int32(u), Sim: s})
			}
		}
		// Index u's prefix (in rare-first order): entries are kept while the
		// remaining suffix could still reach tau against some other vector.
		// b is the upper bound on the dot product achievable by the suffix
		// starting at position i; once b < tau, any pair matching only the
		// suffix cannot reach tau, so the (frequent) suffix stays unindexed.
		entries := ordered[u]
		b := 0.0
		for i := len(entries) - 1; i >= 0; i-- {
			b += float64(entries[i].Weight) * maxw[entries[i].Dim]
		}
		for _, e := range entries {
			if b < tau {
				break
			}
			index[e.Dim] = append(index[e.Dim], idxEntry{doc: int32(u), weight: e.Weight})
			b -= float64(e.Weight) * maxw[e.Dim]
		}
	}
	return out, nil
}

// BruteForceCount computes the join size at tau by comparing all pairs.
// O(n²) — for tests and tiny collections only.
func BruteForceCount(data []vecmath.Vector, tau float64) int64 {
	var c int64
	for i := 0; i < len(data); i++ {
		for k := i + 1; k < len(data); k++ {
			if vecmath.Cosine(data[i], data[k]) >= tau {
				c++
			}
		}
	}
	return c
}

// BruteForceHistogram bins all pair similarities; reference for Histogram.
func BruteForceHistogram(data []vecmath.Vector, edges []float64) []int64 {
	bins := make([]int64, len(edges)-1)
	for i := 0; i < len(data); i++ {
		for k := i + 1; k < len(data); k++ {
			s := vecmath.Cosine(data[i], data[k])
			idx := sort.SearchFloat64s(edges, s)
			if !(idx < len(edges) && edges[idx] == s) {
				idx--
			}
			if idx < 0 {
				continue
			}
			if idx >= len(bins) {
				idx = len(bins) - 1
			}
			bins[idx]++
		}
	}
	return bins
}
