package core

import (
	"slices"
	"sync"

	"lshjoin/internal/lsh"
)

// BipartiteStratumCache caches the cross-group stratum view of a live group
// pair at per-shard-pair granularity. The adopted view is keyed on the full
// (left, right) version-vector pair, and each of its S_left·S_right
// bipartite components is additionally keyed on the (left-shard version,
// right-shard version) pair it was built over — so when one shard publishes,
// the next View rebuilds only that shard's row (or column) of components and
// reuses the rest pointer-identically. Construction runs outside the lock;
// concurrent callers may build the same components redundantly, but every
// returned view is correct for its captured pair.
//
// The cache only advances to a pair that componentwise dominates the adopted
// one (summed versions alias across concurrent captures): a reader that
// raced publication gets a correct one-off view without evicting a newer
// cached one.
type BipartiteStratumCache struct {
	t int

	mu     sync.Mutex
	view   BipartiteStratum
	lv, rv []uint64
	comps  map[[2]int]cachedBipartite
}

// cachedBipartite is one shard pair's bucket matching, tagged with the
// publish versions of the two shard snapshots it was built over.
type cachedBipartite struct {
	bp     *lsh.Bipartite
	lv, rv uint64
}

// NewBipartiteStratumCache returns an empty cache over table t.
func NewBipartiteStratumCache(t int) *BipartiteStratumCache {
	return &BipartiteStratumCache{t: t}
}

// View returns the bipartite stratum view of the captured pair, reusing the
// adopted view on an exact version-vector match and reusing unchanged
// per-shard-pair components otherwise. With one shard per side the view is
// the plain lsh.Bipartite (preserving the historic draw stream, like
// NewBipartiteStratum); otherwise it is the merged per-shard-pair
// decomposition.
func (c *BipartiteStratumCache) View(left, right *lsh.GroupSnapshot) (BipartiteStratum, error) {
	lv, rv := left.Versions(), right.Versions()
	c.mu.Lock()
	if c.view != nil && slices.Equal(c.lv, lv) && slices.Equal(c.rv, rv) {
		view := c.view
		c.mu.Unlock()
		return view, nil
	}
	// Collect the components whose shard pair is unchanged at this capture.
	// Reuse is validated per component, so even a capture older or newer
	// than the adopted pair reuses whatever shard pairs it shares with it.
	reuse := make(map[[2]int]*lsh.Bipartite, len(c.comps))
	for key, cc := range c.comps {
		if key[0] < len(lv) && key[1] < len(rv) && cc.lv == lv[key[0]] && cc.rv == rv[key[1]] {
			reuse[key] = cc.bp
		}
	}
	c.mu.Unlock()

	view, built, err := c.build(left, right, reuse)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.view == nil || versionPairAdvances(lv, c.lv, rv, c.rv) {
		comps := make(map[[2]int]cachedBipartite, len(built))
		for key, bp := range built {
			comps[key] = cachedBipartite{bp: bp, lv: lv[key[0]], rv: rv[key[1]]}
		}
		c.view, c.lv, c.rv, c.comps = view, lv, rv, comps
	}
	return view, nil
}

// build constructs the view for one captured pair outside the lock and
// returns every component it holds (reused or fresh) keyed by shard pair.
func (c *BipartiteStratumCache) build(left, right *lsh.GroupSnapshot, reuse map[[2]int]*lsh.Bipartite) (BipartiteStratum, map[[2]int]*lsh.Bipartite, error) {
	fresh := matchShards(left, right, c.t)
	built := make(map[[2]int]*lsh.Bipartite, left.S()*right.S())
	view, err := bipartiteStratum(left, right, c.t, func(a, b int) (*lsh.Bipartite, error) {
		bp := reuse[[2]int{a, b}]
		if bp == nil {
			var err error
			if bp, err = fresh(a, b); err != nil {
				return nil, err
			}
		}
		built[[2]int{a, b}] = bp
		return bp, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return view, built, nil
}

// versionPairAdvances reports whether the (left, right) version-vector pair
// (lNext, rNext) is strictly newer than (lPrev, rPrev): no component of
// either side regressed and at least one advanced.
func versionPairAdvances(lNext, lPrev, rNext, rPrev []uint64) bool {
	lok, lnew := versionsDominate(lNext, lPrev)
	rok, rnew := versionsDominate(rNext, rPrev)
	return lok && rok && (lnew || rnew)
}

// versionsDominate reports whether next is componentwise ≥ prev (ok) and
// whether any component strictly advanced (newer). Mismatched lengths never
// dominate.
func versionsDominate(next, prev []uint64) (ok, newer bool) {
	if len(next) != len(prev) {
		return false, false
	}
	for i := range next {
		if next[i] < prev[i] {
			return false, false
		}
		if next[i] > prev[i] {
			newer = true
		}
	}
	return true, newer
}
