package lshjoin

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"lshjoin/internal/core"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// goldenCrossEstimates pins the first five estimates of the Seed 11
// crossFixture workload as produced by the static pre-refactor cross-join
// pipeline; see TestCrossJoinSeedStreamGolden.
var goldenCrossEstimates = []struct {
	tau    float64
	mH, mL int
	want   float64
}{
	{0.95, 0, 0, 25},
	{0.2, 0, 0, 3485.3846153846152},
	{0.3, 100, 4000, 385.0720384204909},
	{0.2, 64, 512, 4350.4807692307695},
	{0.1, 0, 0, 25016.666666666668},
}

// vecEqual compares two vectors entry for entry.
func vecEqual(a, b Vector) bool {
	ae, be := a.Entries(), b.Entries()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// crossFixture builds two overlapping DBLP-shaped sides so the high-τ cross
// join is non-empty.
func crossFixture(t *testing.T, nl, nr int) (left, right []Vector) {
	t.Helper()
	left = fixtureVectors(t, nl)
	right, err := GenerateDataset(DatasetDBLP, nr, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(right[:nr/10], left[:nr/10])
	return left, right
}

// staticCrossJoin replays the pre-refactor static cross-join pipeline: two
// single snapshots built from the frozen slices, one bipartite matching,
// and a fresh general estimator per call on the historical seed stream
// Mix2(seed^0xC105515, ctr). The live CrossJoin at S=1 must be draw-for-draw
// identical to this.
type staticCrossJoin struct {
	left, right []Vector
	sim         core.SimFunc
	bp          *lsh.Bipartite
	seed        uint64
	seedCtr     uint64
}

func newStaticCrossJoin(t *testing.T, left, right []Vector, opt Options) *staticCrossJoin {
	t.Helper()
	opt.fillDefaults()
	family, sim := familyFor(opt)
	li, err := lsh.BuildSnapshot(left, family, opt.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := lsh.BuildSnapshot(right, family, opt.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := lsh.NewBipartite(li, ri, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &staticCrossJoin{left: left, right: right, sim: sim, bp: bp, seed: opt.Seed}
}

func (sj *staticCrossJoin) estimate(t *testing.T, tau float64, mH, mL int) float64 {
	t.Helper()
	sj.seedCtr++
	var opts []core.LSHSSOption
	if mH > 0 || mL > 0 {
		n := (len(sj.left) + len(sj.right)) / 2
		if mH <= 0 {
			mH = n
		}
		if mL <= 0 {
			mL = n
		}
		opts = append(opts, core.WithSampleSizes(mH, mL))
	}
	est, err := core.NewGeneralLSHSS(sj.bp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	v, err := est.Estimate(tau, xrand.New(xrand.Mix2(sj.seed^0xC105515, sj.seedCtr)))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The live CrossJoin with one shard per side is draw-for-draw identical to
// the pre-refactor static cross join: same N_H, same exact join, and the
// same estimate for every call on the shared seed stream — across measures
// and budget configurations, with estimates interleaved so the seed
// counters stay aligned.
func TestCrossJoinSingleShardDrawForDraw(t *testing.T) {
	left, right := crossFixture(t, 300, 250)
	for _, opt := range []Options{
		{Seed: 11},
		{Seed: 5, K: 12},
		{Seed: 7, Measure: JaccardSimilarity, K: 6},
	} {
		cj, err := NewCrossJoin(left, right, opt)
		if err != nil {
			t.Fatal(err)
		}
		static := newStaticCrossJoin(t, left, right, opt)
		if got, want := cj.PairsSharingBucket(), static.bp.NH(); got != want {
			t.Fatalf("seed %d: live N_H %d, static %d", opt.Seed, got, want)
		}
		if got, want := cj.ExactJoinSize(0.9), core.ExactGeneralJoin(left, right, static.sim, 0.9); got != want {
			t.Fatalf("seed %d: live exact %d, static %d", opt.Seed, got, want)
		}
		calls := []struct {
			tau    float64
			mH, mL int
		}{
			{0.95, 0, 0}, {0.5, 0, 0}, {0.7, 200, 800}, {0.95, 0, 0}, {0.9, 64, 0},
		}
		for i, cl := range calls {
			got, err := cj.EstimateJoinSizeBudget(cl.tau, cl.mH, cl.mL)
			if err != nil {
				t.Fatal(err)
			}
			if want := static.estimate(t, cl.tau, cl.mH, cl.mL); got != want {
				t.Fatalf("seed %d call %d (τ=%v): live %v, static %v", opt.Seed, i, cl.tau, got, want)
			}
		}
	}
}

// Seed-stream stability: the live CrossJoin must keep producing the exact
// values the static pre-refactor pipeline produced for a pinned workload.
// These constants were recorded from the static pipeline at the refactor
// boundary; a change means the estimator seed stream or the sampling order
// moved, which silently breaks reproducibility for existing users.
func TestCrossJoinSeedStreamGolden(t *testing.T) {
	left, right := crossFixture(t, 300, 250)
	cj, err := NewCrossJoin(left, right, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenCrossEstimates {
		got, err := cj.EstimateJoinSizeBudget(g.tau, g.mH, g.mL)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.want {
			t.Fatalf("call %d (τ=%v, m=%d/%d): estimate %v, pinned %v", i, g.tau, g.mH, g.mL, got, g.want)
		}
	}
}

// Sharded cross joins serve the same statistics as the unsharded union:
// N_H, M-side sizes and the exact join are equal at every shard shape, and
// the sampled estimates track the exact join. Inserts keep both properties
// alive.
func TestCrossJoinShardedUnionEquivalence(t *testing.T) {
	left, right := crossFixture(t, 300, 250)
	union, err := NewCrossJoin(left, right, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exact := union.ExactJoinSize(0.95)
	if exact < 10 {
		t.Fatalf("planting failed: exact = %d", exact)
	}
	for _, s := range []int{2, 3, 5} {
		cj, err := NewCrossJoinSharded(left, right, Options{Seed: 11}, s)
		if err != nil {
			t.Fatal(err)
		}
		if cj.Shards() != s {
			t.Fatalf("Shards() = %d, want %d", cj.Shards(), s)
		}
		if got, want := cj.LeftN(), union.LeftN(); got != want {
			t.Fatalf("s=%d: LeftN %d, want %d", s, got, want)
		}
		if got, want := cj.PairsSharingBucket(), union.PairsSharingBucket(); got != want {
			t.Fatalf("s=%d: N_H %d, union %d", s, got, want)
		}
		if got := cj.ExactJoinSize(0.95); got != exact {
			t.Fatalf("s=%d: exact %d, union %d", s, got, exact)
		}
		var sum float64
		const reps = 30
		for i := 0; i < reps; i++ {
			v, err := cj.EstimateJoinSize(0.95)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if mean := sum / reps; mean < 0.1*float64(exact) || mean > 20*float64(exact) {
			t.Errorf("s=%d: sharded mean %v vs exact %d", s, mean, exact)
		}
		// The general curve over shards is monotone and bounded by M.
		curve, err := cj.EstimateJoinSizeCurve([]float64{0.3, 0.6, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		m := float64(cj.LeftN()) * float64(cj.RightN())
		for i, v := range curve {
			if v < 0 || v > m {
				t.Fatalf("s=%d: curve[%d]=%v outside [0, %v]", s, i, v, m)
			}
			if i > 0 && v > curve[i-1] {
				t.Fatalf("s=%d: curve not monotone at %d", s, i)
			}
		}
		// Two-sided inserts: equality with a fresh union over the grown
		// corpora must survive routing and per-shard publication.
		extraL, err := GenerateDataset(DatasetDBLP, 40, 91)
		if err != nil {
			t.Fatal(err)
		}
		extraR, err := GenerateDataset(DatasetDBLP, 30, 92)
		if err != nil {
			t.Fatal(err)
		}
		copy(extraR[:10], extraL[:10])
		for _, v := range extraL[:20] {
			cj.InsertLeft(v)
		}
		cj.InsertBatchLeft(extraL[20:])
		for _, v := range extraR[:15] {
			cj.InsertRight(v)
		}
		cj.InsertBatchRight(extraR[15:])
		if got, want := cj.LeftN(), len(left)+len(extraL); got != want {
			t.Fatalf("s=%d: LeftN after inserts %d, want %d", s, got, want)
		}
		if got, want := cj.RightN(), len(right)+len(extraR); got != want {
			t.Fatalf("s=%d: RightN after inserts %d, want %d", s, got, want)
		}
		grownUnion, err := NewCrossJoin(append(append([]Vector{}, left...), extraL...),
			append(append([]Vector{}, right...), extraR...), Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cj.PairsSharingBucket(), grownUnion.PairsSharingBucket(); got != want {
			t.Fatalf("s=%d: N_H after inserts %d, union %d", s, got, want)
		}
		if got, want := cj.ExactJoinSize(0.95), grownUnion.ExactJoinSize(0.95); got != want {
			t.Fatalf("s=%d: exact after inserts %d, union %d", s, got, want)
		}
	}
}

// Insert ids are stable shard-encoded handles: LeftVector/RightVector
// resolve every id (single and batch, both sides) back to the inserted
// vector, at one and several shards.
func TestCrossJoinInsertIDsStable(t *testing.T) {
	left, right := crossFixture(t, 120, 100)
	extra, err := GenerateDataset(DatasetDBLP, 30, 93)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 3} {
		cj, err := NewCrossJoin(left, right, Options{Seed: 11, Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range extra[:10] {
			lid := cj.InsertLeft(v)
			rid := cj.InsertRight(extra[10+i])
			if !vecEqual(cj.LeftVector(lid), v) {
				t.Fatalf("s=%d: LeftVector(%d) mismatch", s, lid)
			}
			if !vecEqual(cj.RightVector(rid), extra[10+i]) {
				t.Fatalf("s=%d: RightVector(%d) mismatch", s, rid)
			}
		}
		ids := cj.InsertBatchLeft(extra[20:])
		if len(ids) != len(extra[20:]) {
			t.Fatalf("s=%d: batch returned %d ids for %d vectors", s, len(ids), len(extra[20:]))
		}
		for i, id := range ids {
			if !vecEqual(cj.LeftVector(id), extra[20+i]) {
				t.Fatalf("s=%d: batch id %d resolves to the wrong vector", s, id)
			}
		}
	}
}

// PublishEvery applies per side and per shard: with per-insert publication
// the insert itself must cut the new version. The assertions observe the
// groups through the non-publishing Current view — LeftVersions/RightVersions
// capture (and so publish pending inserts themselves), which would make the
// test pass even with the publication policy deleted.
func TestCrossJoinPublishEvery(t *testing.T) {
	left, right := crossFixture(t, 60, 50)
	// Without a policy, an insert stays pending until some read publishes.
	lazy, err := NewCrossJoin(left, right, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	before := lazy.left.Current().Versions()[0]
	lazy.InsertLeft(left[0])
	if got := lazy.left.Current().Versions()[0]; got != before {
		t.Fatalf("insert published (version %d → %d) with no PublishEvery policy", before, got)
	}
	if p := lazy.left.Shard(0).Pending(); p != 1 {
		t.Fatalf("pending %d after one policy-free insert, want 1", p)
	}

	cj, err := NewCrossJoin(left, right, Options{Seed: 11, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	beforeL := cj.left.Current().Versions()[0]
	beforeR := cj.right.Current().Versions()[0]
	cj.InsertLeft(left[0])
	if got := cj.left.Current().Versions()[0]; got != beforeL+1 {
		t.Fatalf("left version %d after per-insert publication, want %d", got, beforeL+1)
	}
	if got := cj.right.Current().Versions()[0]; got != beforeR {
		t.Fatalf("right version moved to %d on a left insert", got)
	}
	cj.InsertRight(right[0])
	if got := cj.right.Current().Versions()[0]; got != beforeR+1 {
		t.Fatalf("right version %d after per-insert publication, want %d", got, beforeR+1)
	}
	if p := cj.left.Shard(0).Pending(); p != 0 {
		t.Fatalf("pending %d under per-insert publication, want 0", p)
	}
	// Batch inserts publish the touched shards as well.
	cj.InsertBatchRight(right[:3])
	if got, want := cj.right.Current().Versions()[0], beforeR+2; got != want {
		t.Fatalf("right version %d after batch publication, want %d", got, want)
	}
}

// Option validation: multi-table cross joins are rejected with an error
// (the old constructor silently forced Tables to 1), as are empty sides,
// bad measures and bad shard counts.
func TestCrossJoinOptionsValidation(t *testing.T) {
	left, right := crossFixture(t, 20, 20)
	if _, err := NewCrossJoin(left, right, Options{Tables: 2}); err == nil {
		t.Error("Tables > 1 accepted")
	}
	if _, err := NewCrossJoin(left, right, Options{Tables: 1}); err != nil {
		t.Errorf("explicit Tables = 1 rejected: %v", err)
	}
	if _, err := NewCrossJoin(nil, right, Options{}); err == nil {
		t.Error("empty left side accepted")
	}
	if _, err := NewCrossJoin(left, nil, Options{}); err == nil {
		t.Error("empty right side accepted")
	}
	if _, err := NewCrossJoin(left, right, Options{Measure: Measure(99)}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := NewCrossJoinSharded(left, right, Options{}, -1); err == nil {
		t.Error("negative shard count accepted")
	}
	cj, err := NewCrossJoinSharded(left, right, Options{}, 0)
	if err != nil || cj.Shards() != 1 {
		t.Errorf("zero shard count should default to 1, got %v, %v", cj, err)
	}
}

// Concurrent estimates share one seed counter; before the counter became
// atomic this was a data race (two estimates could also draw the same seed
// and return correlated results). Run under -race.
func TestCrossJoinConcurrentEstimates(t *testing.T) {
	left, right := crossFixture(t, 200, 150)
	cj, err := NewCrossJoin(left, right, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				v, err := cj.EstimateJoinSizeBudget(0.9, 100, 100)
				if err != nil {
					errs <- err
					return
				}
				if math.IsNaN(v) || v < 0 {
					t.Errorf("estimate %v out of range", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// -race soak: concurrent two-sided inserts (single and batch, per-insert
// publication) against concurrent estimates, curves, exact joins and N_H
// reads on a sharded cross join. Sizes must be monotone under observation
// and every estimate well-formed.
func TestCrossJoinConcurrentInsertEstimate(t *testing.T) {
	left, right := crossFixture(t, 150, 120)
	cj, err := NewCrossJoin(left, right, Options{Seed: 11, Shards: 3, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateDataset(DatasetDBLP, 200, 94)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers stream a bounded number of two-sided inserts (the readers'
	// exact joins are O(|U|·|V|), so the corpus must not grow unboundedly)
	// and keep cycling until the readers finish.
	writer := func(insert func(Vector) int, batch func([]Vector) []int) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%10 == 9 {
				batch(extra[i%100 : i%100+3])
			} else {
				insert(extra[i%len(extra)])
			}
			runtime.Gosched()
		}
	}
	wg.Add(2)
	go writer(cj.InsertLeft, cj.InsertBatchLeft)
	go writer(cj.InsertRight, cj.InsertBatchRight)
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastL, lastR := 0, 0
			for i := 0; i < 10; i++ {
				v, err := cj.EstimateJoinSizeBudget(0.9, 100, 100)
				if err != nil || math.IsNaN(v) || v < 0 {
					t.Errorf("estimate %v, %v", v, err)
					return
				}
				if _, err := cj.EstimateJoinSizeCurve([]float64{0.5, 0.9}); err != nil {
					t.Errorf("curve: %v", err)
					return
				}
				if nh := cj.PairsSharingBucket(); nh < 0 {
					t.Errorf("negative N_H %d", nh)
					return
				}
				l, r := cj.LeftN(), cj.RightN()
				if l < lastL || r < lastR {
					t.Errorf("sizes regressed: (%d,%d) after (%d,%d)", l, r, lastL, lastR)
					return
				}
				lastL, lastR = l, r
			}
			if cj.ExactJoinSize(0.99) < 0 {
				t.Error("negative exact join")
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
