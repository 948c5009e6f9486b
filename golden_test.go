package lshjoin

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// selfJoinSurface is the read and write surface Collection and
// ShardedCollection share, as the golden workload drives it.
type selfJoinSurface interface {
	Insert(Vector) int
	N() int
	Version() uint64
	IndexBytes() int64
	PairsSharingBucket() int64
	Estimator(Algorithm, ...EstimatorOption) (Estimator, error)
	EstimateJoinSize(float64) (float64, error)
	EstimateJoinSizeCurve([]float64) ([]float64, error)
	ExactJoinSize(float64) (int64, error)
	JoinPairs(float64) ([]JoinPair, error)
	SearchSimilar(Vector, float64) []int
}

// goldenCorpus is 240 DBLP-shaped vectors plus near-duplicates of the first
// 60 (each missing its middle entry), so both measures have a non-empty
// join at high thresholds.
func goldenCorpus(t *testing.T) []Vector {
	t.Helper()
	base := fixtureVectors(t, 240)
	out := append([]Vector(nil), base...)
	for _, v := range base[:60] {
		es := v.Entries()
		if len(es) > 1 {
			es = append(append([]Entry(nil), es[:len(es)/2]...), es[len(es)/2+1:]...)
		}
		dup, err := NewVector(es)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dup)
	}
	return out
}

func fmtFloats(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}

// observeSelfJoin runs the golden workload on a collection built from the
// first 280 vectors of the corpus: three Inserts and one InsertBatch under
// PublishEvery 2, then every read in a fixed order. insertBatch inserts the
// rest of the corpus and formats the ids it returns.
func observeSelfJoin(t *testing.T, c selfJoinSurface, vecs []Vector, insertBatch func([]Vector) string) [][2]string {
	t.Helper()
	var obs [][2]string
	add := func(name string, v any) { obs = append(obs, [2]string{name, fmt.Sprint(v)}) }
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add("insert ids", []int{c.Insert(vecs[280]), c.Insert(vecs[281]), c.Insert(vecs[282])})
	add("batch ids", insertBatch(vecs[283:]))
	add("N", c.N())
	add("Version", c.Version())
	add("IndexBytes", c.IndexBytes())
	add("PairsSharingBucket", c.PairsSharingBucket())
	for _, algo := range Algorithms() {
		for _, tau := range []float64{0.6, 0.9} {
			est, err := c.Estimator(algo, WithEstimatorSeed(41))
			check(err)
			v, err := est.Estimate(tau)
			check(err)
			add(fmt.Sprintf("%s at %v", algo, tau), fmtFloats(v))
		}
	}
	for i, tau := range []float64{0.6, 0.9, 0.6} {
		v, err := c.EstimateJoinSize(tau)
		check(err)
		add(fmt.Sprintf("unseeded %d at %v", i, tau), fmtFloats(v))
	}
	curve, err := c.EstimateJoinSizeCurve([]float64{0.5, 0.7, 0.9})
	check(err)
	add("curve", fmtFloats(curve...))
	for _, tau := range []float64{0.6, 0.9} {
		x, err := c.ExactJoinSize(tau)
		check(err)
		add(fmt.Sprintf("exact at %v", tau), x)
	}
	pairs, err := c.JoinPairs(0.9)
	check(err)
	add("pairs at 0.9", fmt.Sprintf("%d first %+v", len(pairs), pairs[0]))
	add("search", c.SearchSimilar(vecs[1], 0.6))
	return obs
}

// goldenSelfJoin pins what the self-join surfaces answered on the golden
// workload before Collection became the one-shard ShardedCollection and
// the three collection surfaces came to share one read body; see
// TestSelfJoinSeedStreamGolden.
var goldenSelfJoin = map[string][][2]string{
	"TestSelfJoinSeedStreamGolden/collection/measure=0": {
		{"insert ids", "[280 281 282]"},
		{"batch ids", "283"},
		{"N", "300"},
		{"Version", "3"},
		{"IndexBytes", "2912"},
		{"PairsSharingBucket", "3247"},
		{"lsh-ss at 0.6", "86.58666666666667"},
		{"lsh-ss at 0.9", "75.76333333333334"},
		{"lsh-ss-d at 0.6", "86.58666666666667"},
		{"lsh-ss-d at 0.9", "75.76333333333334"},
		{"rs-pop at 0.6", "99.66666666666667"},
		{"rs-pop at 0.9", "99.66666666666667"},
		{"rs-cross at 0.6", "0"},
		{"rs-cross at 0.9", "0"},
		{"lsh-s at 0.6", "0"},
		{"lsh-s at 0.9", "0"},
		{"ju at 0.6", "4789.724264705882"},
		{"ju at 0.9", "0"},
		{"ju-numeric at 0.6", "0"},
		{"ju-numeric at 0.9", "0"},
		{"lc at 0.6", "0"},
		{"lc at 0.9", "0"},
		{"median at 0.6", "15.938333333333334"},
		{"median at 0.9", "15.938333333333334"},
		{"virtual at 0.6", "52.63333333333333"},
		{"virtual at 0.9", "52.63333333333333"},
		{"unseeded 0 at 0.6", "43.29333333333334"},
		{"unseeded 1 at 0.9", "33.47"},
		{"unseeded 2 at 0.6", "64.94"},
		{"curve", "54.11666666666667 54.11666666666667 54.11666666666667"},
		{"exact at 0.6", "67"},
		{"exact at 0.9", "62"},
		{"pairs at 0.9", "62 first {U:20 V:49 Sim:0.9285713937831845}"},
		{"search", "[1 241]"},
	},
	"TestSelfJoinSeedStreamGolden/sharded4/measure=0": {
		{"insert ids", "[1099511627840 2199023255627 1099511627841]"},
		{"batch ids", "[1099511627842 3298534883405 64 2199023255628 3298534883406 2199023255629 2199023255630 1099511627843 3298534883407 2199023255631 1099511627844 2199023255632 2199023255633 65 1099511627845 3298534883408 1099511627846]"},
		{"N", "300"},
		{"Version", "9"},
		{"IndexBytes", "4384"},
		{"PairsSharingBucket", "3247"},
		{"lsh-ss at 0.6", "43.29333333333334"},
		{"lsh-ss at 0.9", "43.29333333333334"},
		{"lsh-ss-d at 0.6", "43.29333333333334"},
		{"lsh-ss-d at 0.9", "43.29333333333334"},
		{"rs-pop at 0.6", "99.66666666666667"},
		{"rs-pop at 0.9", "99.66666666666667"},
		{"rs-cross at 0.6", "0"},
		{"rs-cross at 0.9", "0"},
		{"lsh-s at 0.6", "0"},
		{"lsh-s at 0.9", "0"},
		{"ju at 0.6", "4789.724264705882"},
		{"ju at 0.9", "0"},
		{"ju-numeric at 0.6", "0"},
		{"ju-numeric at 0.9", "0"},
		{"lc at 0.6", "0"},
		{"lc at 0.9", "0"},
		{"median at 0.6", "16.438333333333333"},
		{"median at 0.9", "16.438333333333333"},
		{"virtual at 0.6", "126.32"},
		{"virtual at 0.9", "126.32"},
		{"unseeded 0 at 0.6", "108.23333333333333"},
		{"unseeded 1 at 0.9", "32.47"},
		{"unseeded 2 at 0.6", "64.94"},
		{"curve", "97.41 97.41 97.41"},
		{"exact at 0.6", "67"},
		{"exact at 0.9", "62"},
		{"pairs at 0.9", "62 first {U:0 V:57 Sim:0.9718253031925594}"},
		{"search", "[1099511627776 3298534883392]"},
	},
	"TestSelfJoinSeedStreamGolden/collection/measure=1": {
		{"insert ids", "[280 281 282]"},
		{"batch ids", "283"},
		{"N", "300"},
		{"Version", "3"},
		{"IndexBytes", "23080"},
		{"PairsSharingBucket", "50"},
		{"lsh-ss at 0.6", "40.833333333333336"},
		{"lsh-ss at 0.9", "31.333333333333332"},
		{"lsh-ss-d at 0.6", "40.833333333333336"},
		{"lsh-ss-d at 0.9", "31.333333333333332"},
		{"rs-pop at 0.6", "99.66666666666667"},
		{"rs-pop at 0.9", "99.66666666666667"},
		{"rs-cross at 0.6", "0"},
		{"rs-cross at 0.9", "0"},
		{"lsh-s at 0.6", "66.20092924533527"},
		{"lsh-s at 0.9", "66.20092924533527"},
		{"ju at 0.6", "0"},
		{"ju at 0.9", "0"},
		{"ju-numeric at 0.6", "0"},
		{"ju-numeric at 0.9", "0"},
		{"lc at 0.6", "297.4334983144439"},
		{"lc at 0.9", "79.72155557450745"},
		{"median at 0.6", "42.5"},
		{"median at 0.9", "33.125"},
		{"virtual at 0.6", "59.83"},
		{"virtual at 0.9", "44.64"},
		{"unseeded 0 at 0.6", "43.166666666666664"},
		{"unseeded 1 at 0.9", "37.333333333333336"},
		{"unseeded 2 at 0.6", "42.333333333333336"},
		{"curve", "42 42 31.5"},
		{"exact at 0.6", "66"},
		{"exact at 0.9", "48"},
		{"pairs at 0.9", "48 first {U:0 V:240 Sim:0.9444444444444444}"},
		{"search", "[1 241]"},
	},
	"TestSelfJoinSeedStreamGolden/sharded4/measure=1": {
		{"insert ids", "[1099511627840 2199023255627 1099511627841]"},
		{"batch ids", "[1099511627842 3298534883405 64 2199023255628 3298534883406 2199023255629 2199023255630 1099511627843 3298534883407 2199023255631 1099511627844 2199023255632 2199023255633 65 1099511627845 3298534883408 1099511627846]"},
		{"N", "300"},
		{"Version", "9"},
		{"IndexBytes", "25320"},
		{"PairsSharingBucket", "50"},
		{"lsh-ss at 0.6", "44"},
		{"lsh-ss at 0.9", "33.666666666666664"},
		{"lsh-ss-d at 0.6", "44"},
		{"lsh-ss-d at 0.9", "33.666666666666664"},
		{"rs-pop at 0.6", "99.66666666666667"},
		{"rs-pop at 0.9", "99.66666666666667"},
		{"rs-cross at 0.6", "0"},
		{"rs-cross at 0.9", "0"},
		{"lsh-s at 0.6", "104.90686053146881"},
		{"lsh-s at 0.9", "59.06203295700694"},
		{"ju at 0.6", "0"},
		{"ju at 0.9", "0"},
		{"ju-numeric at 0.6", "0"},
		{"ju-numeric at 0.9", "0"},
		{"lc at 0.6", "297.37553137965153"},
		{"lc at 0.9", "79.73023097711481"},
		{"median at 0.6", "44.08333333333333"},
		{"median at 0.9", "33.29"},
		{"virtual at 0.6", "62.775"},
		{"virtual at 0.9", "50.84"},
		{"unseeded 0 at 0.6", "42"},
		{"unseeded 1 at 0.9", "32.5"},
		{"unseeded 2 at 0.6", "40.5"},
		{"curve", "41.833333333333336 41.833333333333336 32.833333333333336"},
		{"exact at 0.6", "66"},
		{"exact at 0.9", "48"},
		{"pairs at 0.9", "48 first {U:0 V:57 Sim:0.9444444444444444}"},
		{"search", "[1099511627776 3298534883392]"},
	},
}

// Seed-stream stability for self joins: Collection (both measures) and a
// four-shard ShardedCollection must keep answering exactly what they
// answered when these constants were recorded — ids, versions, index
// accounting, N_H, one seeded estimate per algorithm at two thresholds, the
// unseeded estimate stream, a curve, exact joins, join pairs and a search.
// TestShardedSingleShardDrawForDraw and TestRemoteMatchesShardedDrawForDraw
// compare surfaces that now run one body; only recorded constants show that
// the body itself did not move.
func TestSelfJoinSeedStreamGolden(t *testing.T) {
	vecs := goldenCorpus(t)
	for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
		opt := Options{K: 4, Tables: 2, Seed: 13, Measure: measure, PublishEvery: 2}
		t.Run(fmt.Sprintf("collection/measure=%d", measure), func(t *testing.T) {
			c, err := New(vecs[:280], opt)
			if err != nil {
				t.Fatal(err)
			}
			got := observeSelfJoin(t, c, vecs, func(vs []Vector) string { return fmt.Sprint(c.InsertBatch(vs)) })
			compareGolden(t, got)
		})
		opt.Shards = 4
		t.Run(fmt.Sprintf("sharded4/measure=%d", measure), func(t *testing.T) {
			c, err := NewSharded(vecs[:280], opt)
			if err != nil {
				t.Fatal(err)
			}
			got := observeSelfJoin(t, c, vecs, func(vs []Vector) string { return fmt.Sprint(c.InsertBatch(vs)) })
			compareGolden(t, got)
		})
	}
}

func compareGolden(t *testing.T, got [][2]string) {
	t.Helper()
	want, ok := goldenSelfJoin[t.Name()]
	if !ok {
		t.Fatalf("no golden observations for %s", t.Name())
	}
	if len(got) != len(want) {
		t.Fatalf("%d observations, pinned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %s, pinned %s", want[i][0], got[i][1], want[i][1])
		}
	}
}
