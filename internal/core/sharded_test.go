package core

import (
	"math"
	"testing"

	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// groupAndUnion routes testData into an S-shard group and builds the union
// snapshot over the group's dense order, so dense ids align across the two.
func groupAndUnion(t *testing.T, n, k, ell, s int, fam lsh.Family) (*lsh.GroupSnapshot, *lsh.Snapshot) {
	t.Helper()
	data := testData(n, 77)
	g, err := lsh.NewShardGroup(data, fam, k, ell, s)
	if err != nil {
		t.Fatal(err)
	}
	gs := g.Capture()
	union, err := lsh.BuildSnapshot(gs.Data(), fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	return gs, union
}

// The merged stratum must reproduce the union index's stratum statistics
// exactly: same M, N_H, N_L, per-pair membership, and component cumulative
// weights that end at N_H.
func TestMergedStratumMatchesUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		fam  lsh.Family
		k    int
	}{
		{"narrow-simhash", lsh.NewSimHash(5), 10},
		{"wide-minhash", lsh.NewMinHash(5), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range []int{1, 2, 4} {
				gs, union := groupAndUnion(t, 150, tc.k, 2, s, tc.fam)
				for ti := 0; ti < 2; ti++ {
					ms, err := NewMergedStratum(gs, ti)
					if err != nil {
						t.Fatal(err)
					}
					tab := union.Table(ti)
					if ms.M() != tab.M() || ms.NH() != tab.NH() || ms.NL() != tab.NL() {
						t.Fatalf("s=%d t=%d: merged (M,NH,NL)=(%d,%d,%d), union (%d,%d,%d)",
							s, ti, ms.M(), ms.NH(), ms.NL(), tab.M(), tab.NH(), tab.NL())
					}
					if want := s + s*(s-1)/2; ms.Components() != want {
						t.Fatalf("s=%d: %d components, want %d", s, ms.Components(), want)
					}
					if cum := ms.cum[len(ms.cum)-1]; cum != ms.NH() {
						t.Fatalf("cumulative component weights end at %d, NH %d", cum, ms.NH())
					}
					for i := 0; i < gs.N(); i++ {
						for j := i + 1; j < gs.N(); j++ {
							if got, want := ms.SameBucket(i, j), tab.SameBucket(i, j); got != want {
								t.Fatalf("s=%d t=%d SameBucket(%d,%d)=%v, union %v", s, ti, i, j, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// SamplePair over the merged stratum is uniform over the union stratum H:
// every sampled pair is co-bucketed in the union, every union stratum pair
// is reachable, and frequencies match the uniform expectation.
func TestMergedSamplePairUniformOverUnionStratum(t *testing.T) {
	gs, union := groupAndUnion(t, 90, 8, 1, 3, lsh.NewSimHash(9))
	ms, err := NewMergedStratum(gs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := union.Table(0)
	if tab.NH() < 3 {
		t.Skip("bucket structure degenerate for this seed")
	}
	rng := xrand.New(5)
	counts := map[[2]int]int{}
	const draws = 60000
	for d := 0; d < draws; d++ {
		a, b, ok := ms.SamplePair(rng)
		if !ok {
			t.Fatal("SamplePair failed with NH > 0")
		}
		if a == b {
			t.Fatal("sampled identical indices")
		}
		if !tab.SameBucket(a, b) {
			t.Fatalf("sampled pair (%d,%d) not co-bucketed in the union", a, b)
		}
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	want := float64(draws) / float64(ms.NH())
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v sampled %d times, want ~%.0f", pair, c, want)
		}
	}
	if int64(len(counts)) != ms.NH() {
		t.Errorf("observed %d distinct pairs, stratum has %d", len(counts), ms.NH())
	}
}

// At one shard every self-join estimator stratifies by the snapshot's own
// table, so a one-shard group answers draw-for-draw as lsh.SingleSnapshot of
// the union build does — estimates and curves, on every table.
func TestMergedSingleShardDelegates(t *testing.T) {
	gs, union := groupAndUnion(t, 200, 10, 2, 1, lsh.NewSimHash(3))
	single := lsh.SingleSnapshot(union)
	taus := []float64{0.5, 0.8, 0.95}
	same := func(name string, a, b Estimator) {
		t.Helper()
		for _, tau := range taus {
			for seed := uint64(1); seed <= 3; seed++ {
				x, err := a.Estimate(tau, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				y, err := b.Estimate(tau, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if x != y {
					t.Fatalf("%s tau=%v seed=%d: group %v, single %v", name, tau, seed, x, y)
				}
			}
		}
	}
	for ti := 0; ti < 2; ti++ {
		merged, err := NewMergedLSHSS(gs, nil, WithTable(ti))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewMergedLSHSS(single, nil, WithTable(ti))
		if err != nil {
			t.Fatal(err)
		}
		if merged.strat != gs.Snap(0).Table(ti) {
			t.Fatalf("table %d: stratum is %T, want the snapshot's own *lsh.Table", ti, merged.strat)
		}
		same("LSH-SS", merged, plain)
		for seed := uint64(1); seed <= 3; seed++ {
			ca, err := merged.EstimateCurve(taus, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			cb, err := plain.EstimateCurve(taus, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("table %d seed %d: curve[%d] group %v, single %v", ti, seed, i, ca[i], cb[i])
				}
			}
		}
	}
	vm, err := NewMergedVirtualSS(gs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ti, st := range vm.strata {
		if st != gs.Snap(0).Table(ti) {
			t.Fatalf("virtual table %d: stratum is %T, want the snapshot's own *lsh.Table", ti, st)
		}
	}
	vp, err := NewMergedVirtualSS(single, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("virtual", vm, vp)
	mm, err := NewMergedMedianSS(gs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMergedMedianSS(single, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("median", mm, mp)
	sm, err := NewMergedLSHS(gs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewMergedLSHS(single, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("LSH-S", sm, sp)
}

// JU consumes only (M, N_H, k), and the merged N_H is exact, so the sharded
// JU equals the union JU bit for bit — both modes.
func TestMergedJUEqualsUnion(t *testing.T) {
	for _, s := range []int{2, 5} {
		gs, union := groupAndUnion(t, 180, 8, 1, s, lsh.NewSimHash(11))
		for _, mode := range []JUMode{JUClosedForm, JUNumeric} {
			merged, err := NewMergedJU(gs, mode)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewMergedJU(lsh.SingleSnapshot(union), mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range []float64{0.3, 0.7, 0.9} {
				a, err := merged.Estimate(tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := plain.Estimate(tau, nil)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("s=%d mode=%d tau=%v: merged %v, union %v", s, mode, tau, a, b)
				}
			}
		}
	}
}

// The merged LSH-SS, median and virtual estimators answer over shards with
// the accuracy the single-index estimators deliver: within a small factor of
// the exact join size at a threshold with real selectivity.
func TestMergedEstimatorsTrackExactJoin(t *testing.T) {
	gs, _ := groupAndUnion(t, 400, 8, 3, 4, lsh.NewSimHash(7))
	joiner := exactjoin.NewJoiner(gs.Data())
	const tau = 0.8
	exact, err := joiner.CountAt(tau)
	if err != nil {
		t.Fatal(err)
	}
	if exact < 10 {
		t.Skipf("degenerate corpus: exact join %d", exact)
	}
	build := map[string]func() (Estimator, error){
		"lshss":   func() (Estimator, error) { return NewMergedLSHSS(gs, nil) },
		"median":  func() (Estimator, error) { return NewMergedMedianSS(gs, nil) },
		"virtual": func() (Estimator, error) { return NewMergedVirtualSS(gs, nil) },
	}
	for name, mk := range build {
		est, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Average a few seeded estimates: individual draws are noisy by
		// design, the mean should sit near the truth.
		var sum float64
		const reps = 9
		for seed := uint64(1); seed <= reps; seed++ {
			v, err := est.Estimate(tau, xrand.New(seed*97))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum += v
		}
		mean := sum / reps
		if ratio := mean / float64(exact); ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: mean estimate %.1f vs exact %d (ratio %.2f)", name, mean, exact, ratio)
		}
	}
}

// The merged curve estimator inherits monotonicity and stays consistent with
// pointwise merged estimates' scale.
func TestMergedEstimateCurveMonotone(t *testing.T) {
	gs, _ := groupAndUnion(t, 300, 8, 1, 3, lsh.NewSimHash(13))
	e, err := NewMergedLSHSS(gs, nil)
	if err != nil {
		t.Fatal(err)
	}
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
	curve, err := e.EstimateCurve(taus, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("curve not monotone at %d: %v", i, curve)
		}
	}
}

// Out-of-range table selections fail fast on every constructor, merged or
// not (the virtual-bucket estimator ignores WithTable but still validates).
func TestOutOfRangeTableRejected(t *testing.T) {
	gs, union := groupAndUnion(t, 60, 6, 2, 3, lsh.NewSimHash(3))
	if _, err := NewMergedVirtualSS(lsh.SingleSnapshot(union), nil, WithTable(7)); err == nil {
		t.Error("VirtualSS accepted out-of-range table")
	}
	if _, err := NewMergedVirtualSS(gs, nil, WithTable(7)); err == nil {
		t.Error("merged VirtualSS accepted out-of-range table")
	}
	if _, err := NewMergedLSHSS(gs, nil, WithTable(7)); err == nil {
		t.Error("merged LSHSS accepted out-of-range table")
	}
	if _, err := NewMergedStratum(gs, 9); err == nil {
		t.Error("MergedStratum accepted out-of-range table")
	}
}

// LSH-S over shards uses the merged N_H with the union corpus.
func TestMergedLSHSRuns(t *testing.T) {
	gs, union := groupAndUnion(t, 200, 8, 1, 3, lsh.NewSimHash(15))
	merged, err := NewMergedLSHS(gs, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMergedLSHS(lsh.SingleSnapshot(union), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same n, same family, exact same N_H: identical RNG stream gives the
	// identical estimate even though the estimators were built separately.
	a, err := merged.Estimate(0.8, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Estimate(0.8, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("merged LSH-S %v, union %v", a, b)
	}
}

// crossGroupsAndUnion routes two corpora into shard groups (sharing one
// family) and builds the union bipartite matching over their dense orders,
// so dense group ids align with the union matching's ids.
func crossGroupsAndUnion(t *testing.T, nl, nr, k, ell, sl, sr int, fam lsh.Family) (*lsh.GroupSnapshot, *lsh.GroupSnapshot, *lsh.Bipartite) {
	t.Helper()
	left := testData(nl, 101)
	right := testData(nr, 103)
	copy(right[:nr/5], left[:nr/5]) // plant shared vectors so stratum H is non-trivial
	gl, err := lsh.NewShardGroup(left, fam, k, ell, sl)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := lsh.NewShardGroup(right, fam, k, ell, sr)
	if err != nil {
		t.Fatal(err)
	}
	lgs, rgs := gl.Capture(), gr.Capture()
	ul, err := lsh.BuildSnapshot(lgs.Data(), fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := lsh.BuildSnapshot(rgs.Data(), fam, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	union, err := lsh.NewBipartite(ul, ur, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lgs, rgs, union
}

// The merged bipartite stratum must reproduce the union bipartite matching
// exactly: same M, N_H, N_L, per-pair membership and similarity, one
// component per shard pair, and cumulative weights ending at N_H.
func TestMergedBipartiteMatchesUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		fam  lsh.Family
		k    int
	}{
		{"narrow-simhash", lsh.NewSimHash(5), 10},
		{"wide-minhash", lsh.NewMinHash(5), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 2}} {
				sl, sr := shape[0], shape[1]
				lgs, rgs, union := crossGroupsAndUnion(t, 120, 100, tc.k, 1, sl, sr, tc.fam)
				ms, err := NewMergedBipartiteStratum(lgs, rgs, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ms.M() != union.M() || ms.NH() != union.NH() || ms.NL() != union.NL() {
					t.Fatalf("s=%dx%d: merged (M,NH,NL)=(%d,%d,%d), union (%d,%d,%d)",
						sl, sr, ms.M(), ms.NH(), ms.NL(), union.M(), union.NH(), union.NL())
				}
				if ms.NH() == 0 {
					t.Fatalf("s=%dx%d: degenerate fixture, N_H = 0", sl, sr)
				}
				if ms.LeftN() != union.LeftN() || ms.RightN() != union.RightN() {
					t.Fatalf("s=%dx%d: merged sides (%d,%d), union (%d,%d)",
						sl, sr, ms.LeftN(), ms.RightN(), union.LeftN(), union.RightN())
				}
				if want := sl * sr; ms.Components() != want {
					t.Fatalf("s=%dx%d: %d components, want %d", sl, sr, ms.Components(), want)
				}
				if cum := ms.cum[len(ms.cum)-1]; cum != ms.NH() {
					t.Fatalf("cumulative component weights end at %d, NH %d", cum, ms.NH())
				}
				for u := 0; u < lgs.N(); u++ {
					for v := 0; v < rgs.N(); v++ {
						if got, want := ms.SameBucket(u, v), union.SameBucket(u, v); got != want {
							t.Fatalf("s=%dx%d SameBucket(%d,%d)=%v, union %v", sl, sr, u, v, got, want)
						}
						if got, want := ms.Sim(u, v), union.Sim(u, v); got != want {
							t.Fatalf("s=%dx%d Sim(%d,%d)=%v, union %v", sl, sr, u, v, got, want)
						}
					}
				}
			}
		})
	}
}

// SamplePair over the merged bipartite stratum is uniform over the union
// cross stratum H: every sampled pair is bucket-matched in the union, every
// union stratum pair is reachable, and frequencies match the uniform
// expectation.
func TestMergedBipartiteSamplePairUniform(t *testing.T) {
	lgs, rgs, union := crossGroupsAndUnion(t, 80, 70, 8, 1, 3, 2, lsh.NewSimHash(9))
	ms, err := NewMergedBipartiteStratum(lgs, rgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if union.NH() < 3 {
		t.Skip("bucket structure degenerate for this seed")
	}
	rng := xrand.New(5)
	counts := map[[2]int]int{}
	const draws = 60000
	for d := 0; d < draws; d++ {
		u, v, ok := ms.SamplePair(rng)
		if !ok {
			t.Fatal("SamplePair failed with NH > 0")
		}
		if !union.SameBucket(u, v) {
			t.Fatalf("sampled pair (%d,%d) not bucket-matched in the union", u, v)
		}
		counts[[2]int{u, v}]++
	}
	want := float64(draws) / float64(ms.NH())
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v sampled %d times, want ~%.0f", pair, c, want)
		}
	}
	if int64(len(counts)) != ms.NH() {
		t.Errorf("observed %d distinct pairs, stratum has %d", len(counts), ms.NH())
	}
}

// mergedGeneral builds the general estimator over NewBipartiteStratum's
// view of a captured group pair.
func mergedGeneral(t *testing.T, left, right *lsh.GroupSnapshot) (*GeneralLSHSS, BipartiteStratum) {
	t.Helper()
	bs, err := NewBipartiteStratum(left, right, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewGeneralLSHSS(bs)
	if err != nil {
		t.Fatal(err)
	}
	return e, bs
}

// With one shard on each side the cross stratum is the plain bipartite
// matching of the two snapshots, so a one-shard group pair answers
// draw-for-draw as lsh.SingleSnapshot of the union builds does: identical
// estimates and curves.
func TestMergedGeneralSingleShardDelegates(t *testing.T) {
	fam := lsh.NewSimHash(3)
	lgs, rgs, _ := crossGroupsAndUnion(t, 150, 120, 10, 1, 1, 1, fam)
	merged, bs := mergedGeneral(t, lgs, rgs)
	if _, ok := bs.(*lsh.Bipartite); !ok {
		t.Fatalf("1×1 stratum is %T, want the plain *lsh.Bipartite", bs)
	}
	ul, err := lsh.BuildSnapshot(lgs.Data(), fam, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := lsh.BuildSnapshot(rgs.Data(), fam, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, ps := mergedGeneral(t, lsh.SingleSnapshot(ul), lsh.SingleSnapshot(ur))
	if _, ok := ps.(*lsh.Bipartite); !ok {
		t.Fatalf("single-snapshot stratum is %T, want the plain *lsh.Bipartite", ps)
	}
	taus := []float64{0.9, 0.5, 0.7}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, tau := range taus {
			a, err := merged.Estimate(tau, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := plain.Estimate(tau, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("seed %d tau %v: merged %v, plain %v", seed, tau, a, b)
			}
		}
		ca, err := merged.EstimateCurve(taus, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := plain.EstimateCurve(taus, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("seed %d: curve[%d] merged %v, plain %v", seed, i, ca[i], cb[i])
			}
		}
	}
}

// The merged general estimator over genuinely sharded sides tracks the
// exact cross join at a planted high threshold.
func TestMergedGeneralTracksExactJoin(t *testing.T) {
	lgs, rgs, _ := crossGroupsAndUnion(t, 200, 150, 10, 1, 3, 2, lsh.NewSimHash(7))
	exact := float64(ExactGeneralJoin(lgs.Data(), rgs.Data(), nil, 0.95))
	if exact < 10 {
		t.Fatalf("planting failed: exact = %v", exact)
	}
	est, _ := mergedGeneral(t, lgs, rgs)
	var sum float64
	const reps = 30
	for i := 0; i < reps; i++ {
		v, err := est.Estimate(0.95, xrand.New(uint64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if mean := sum / reps; mean < 0.1*exact || mean > 20*exact {
		t.Errorf("merged general mean %v vs exact %v", mean, exact)
	}
}

// The general curve is monotone non-increasing in τ and clamped to [0, M],
// over both plain and merged strata.
func TestGeneralCurveMonotone(t *testing.T) {
	lgs, rgs, union := crossGroupsAndUnion(t, 150, 120, 8, 1, 2, 2, lsh.NewSimHash(11))
	merged, _ := mergedGeneral(t, lgs, rgs)
	plain, err := NewGeneralLSHSS(union)
	if err != nil {
		t.Fatal(err)
	}
	taus := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	for name, e := range map[string]*GeneralLSHSS{"merged": merged, "plain": plain} {
		curve, err := e.EstimateCurve(taus, xrand.New(21))
		if err != nil {
			t.Fatal(err)
		}
		m := float64(union.M())
		for i := range curve {
			if curve[i] < 0 || curve[i] > m {
				t.Fatalf("%s: curve[%d]=%v outside [0, %v]", name, i, curve[i], m)
			}
			if i > 0 && curve[i] > curve[i-1] {
				t.Fatalf("%s: curve not monotone at %d: %v > %v", name, i, curve[i], curve[i-1])
			}
		}
		if _, err := e.EstimateCurve(nil, xrand.New(1)); err == nil {
			t.Fatalf("%s: empty grid accepted", name)
		}
		if _, err := e.EstimateCurve([]float64{1.5}, xrand.New(1)); err == nil {
			t.Fatalf("%s: out-of-range τ accepted", name)
		}
	}
}

// Incompatible or out-of-range cross-group inputs are rejected up front.
func TestMergedBipartiteValidation(t *testing.T) {
	data := testData(30, 7)
	mk := func(fam lsh.Family, k int) *lsh.GroupSnapshot {
		g, err := lsh.NewShardGroup(data, fam, k, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return g.Capture()
	}
	base := mk(lsh.NewSimHash(1), 6)
	if _, err := NewMergedBipartiteStratum(base, mk(lsh.NewSimHash(2), 6), 0); err == nil {
		t.Error("mismatched families accepted")
	}
	if _, err := NewMergedBipartiteStratum(base, mk(lsh.NewSimHash(1), 5), 0); err == nil {
		t.Error("mismatched k accepted")
	}
	if _, err := NewMergedBipartiteStratum(base, base, 1); err == nil {
		t.Error("out-of-range table accepted")
	}
	if _, err := NewMergedBipartiteStratum(base, nil, 0); err == nil {
		t.Error("nil side accepted")
	}
	if _, err := NewBipartiteStratum(base, nil, 0); err == nil {
		t.Error("cross stratum accepted nil side")
	}
}
