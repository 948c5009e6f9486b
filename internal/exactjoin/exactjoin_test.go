package exactjoin

import (
	"math"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func randCollection(n, dims, nnz int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		m := 1 + rng.Intn(nnz)
		ds := make([]uint32, 0, m)
		for j := 0; j < m; j++ {
			ds = append(ds, uint32(rng.Intn(dims)))
		}
		data[i] = vecmath.FromDims(ds)
	}
	// Inject a few exact duplicates so τ = 1.0 is non-trivial.
	if n > 10 {
		data[1] = data[0]
		data[7] = data[5]
	}
	return data
}

func randWeighted(n, dims, nnz int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		m := 1 + rng.Intn(nnz)
		es := make([]vecmath.Entry, 0, m)
		for j := 0; j < m; j++ {
			es = append(es, vecmath.Entry{
				Dim:    uint32(rng.Intn(dims)),
				Weight: float32(rng.Float64()*2 + 0.1),
			})
		}
		v, err := vecmath.New(es)
		if err != nil {
			panic(err)
		}
		data[i] = v
	}
	return data
}

func TestCountsValidation(t *testing.T) {
	j := NewJoiner(randCollection(10, 20, 4, 1))
	if _, err := j.Counts([]float64{0}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := j.Counts([]float64{1.5}); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestCountsMatchBruteForceBinary(t *testing.T) {
	data := randCollection(300, 40, 8, 3)
	j := NewJoiner(data)
	taus := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	got, err := j.Counts(taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range taus {
		want := BruteForceCount(data, tau)
		if got[i] != want {
			t.Errorf("tau=%v: Counts=%d brute=%d", tau, got[i], want)
		}
	}
}

func TestCountsMatchBruteForceWeighted(t *testing.T) {
	data := randWeighted(200, 30, 10, 7)
	j := NewJoiner(data)
	taus := []float64{0.2, 0.4, 0.6, 0.8}
	got, err := j.Counts(taus)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range taus {
		want := BruteForceCount(data, tau)
		if got[i] != want {
			t.Errorf("tau=%v: Counts=%d brute=%d", tau, got[i], want)
		}
	}
}

func TestCountsUnsortedThresholdsAndDuplicates(t *testing.T) {
	data := randCollection(150, 30, 6, 11)
	j := NewJoiner(data)
	got, err := j.Counts([]float64{0.9, 0.3, 0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != got[2] {
		t.Errorf("duplicate thresholds disagree: %v", got)
	}
	w3, _ := j.CountAt(0.3)
	w5, _ := j.CountAt(0.5)
	w9, _ := j.CountAt(0.9)
	if got[1] != w3 || got[3] != w5 || got[0] != w9 {
		t.Errorf("unsorted thresholds wrong: %v vs %d %d %d", got, w3, w5, w9)
	}
}

func TestCountsMonotoneInThreshold(t *testing.T) {
	data := randCollection(400, 50, 7, 13)
	j := NewJoiner(data)
	taus := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	got, err := j.Counts(taus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Errorf("counts increased from τ=%v (%d) to τ=%v (%d)", taus[i-1], got[i-1], taus[i], got[i])
		}
	}
}

func TestCountAtOneFindsDuplicates(t *testing.T) {
	data := randCollection(50, 100, 5, 17) // duplicates injected at (0,1) and (5,7)
	j := NewJoiner(data)
	got, err := j.CountAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceCount(data, 1.0)
	if got != want {
		t.Errorf("duplicates at τ=1: got %d, want %d", got, want)
	}
	if want < 2 {
		t.Fatalf("test setup lost its duplicates: brute=%d", want)
	}
}

func TestHistogramMatchesBruteForce(t *testing.T) {
	data := randCollection(200, 35, 6, 19)
	j := NewJoiner(data)
	edges := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	got, err := j.Histogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceHistogram(data, edges)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("bin %d: got %d, want %d (all: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	j := NewJoiner(randCollection(10, 20, 4, 1))
	if _, err := j.Histogram([]float64{0.5}); err == nil {
		t.Error("single edge accepted")
	}
	if _, err := j.Histogram([]float64{0.5, 0.4}); err == nil {
		t.Error("descending edges accepted")
	}
	if _, err := j.Histogram([]float64{0, 0.5}); err == nil {
		t.Error("zero edge accepted")
	}
}

func TestPairsMatchBruteForce(t *testing.T) {
	for _, seed := range []uint64{23, 29, 31} {
		data := randCollection(150, 30, 6, seed)
		j := NewJoiner(data)
		for _, tau := range []float64{0.4, 0.7, 0.9} {
			pairs, err := j.Pairs(tau)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[[2]int32]bool{}
			for _, p := range pairs {
				if p.U >= p.V {
					t.Fatalf("pair not ordered: %+v", p)
				}
				key := [2]int32{p.U, p.V}
				if seen[key] {
					t.Fatalf("duplicate pair %v", key)
				}
				seen[key] = true
				if s := vecmath.Cosine(data[p.U], data[p.V]); s < tau {
					t.Fatalf("pair %v has sim %v < %v", key, s, tau)
				}
			}
			if want := BruteForceCount(data, tau); int64(len(pairs)) != want {
				t.Errorf("seed=%d tau=%v: got %d pairs, want %d", seed, tau, len(pairs), want)
			}
		}
	}
}

func TestPairsWeightedMatchBruteForce(t *testing.T) {
	data := randWeighted(120, 25, 8, 37)
	j := NewJoiner(data)
	for _, tau := range []float64{0.3, 0.6, 0.85} {
		pairs, err := j.Pairs(tau)
		if err != nil {
			t.Fatal(err)
		}
		if want := BruteForceCount(data, tau); int64(len(pairs)) != want {
			t.Errorf("tau=%v: got %d pairs, want %d", tau, len(pairs), want)
		}
	}
}

func TestPairsValidation(t *testing.T) {
	j := NewJoiner(randCollection(10, 20, 4, 1))
	if _, err := j.Pairs(0); err == nil {
		t.Error("tau 0 accepted")
	}
	if _, err := j.Pairs(1.1); err == nil {
		t.Error("tau > 1 accepted")
	}
}

// NaN compares false against both bounds of (0, 1], so a range check
// written as t <= 0 || t > 1 lets it through; every entry point must
// reject it.
func TestNaNThresholdRejected(t *testing.T) {
	j := NewJoiner(randCollection(10, 20, 4, 1))
	nan := math.NaN()
	if err := CheckThreshold(nan); err == nil {
		t.Error("CheckThreshold accepted NaN")
	}
	if _, err := j.Counts([]float64{0.5, nan}); err == nil {
		t.Error("Counts accepted NaN")
	}
	if _, err := j.CountAt(nan); err == nil {
		t.Error("CountAt accepted NaN")
	}
	if _, err := j.Pairs(nan); err == nil {
		t.Error("Pairs accepted NaN")
	}
	if _, err := j.Histogram([]float64{0.5, nan}); err == nil {
		t.Error("Histogram accepted a NaN edge")
	}
}

func TestZeroVectorsMatchNothing(t *testing.T) {
	data := []vecmath.Vector{{}, {}, vecmath.FromDims([]uint32{1})}
	j := NewJoiner(data)
	c, err := j.CountAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("zero vectors produced %d pairs", c)
	}
}

func TestJoinerSizes(t *testing.T) {
	data := randCollection(25, 20, 4, 41)
	j := NewJoiner(data)
	if j.N() != 25 {
		t.Errorf("N = %d", j.N())
	}
	if j.M() != 300 {
		t.Errorf("M = %d, want C(25,2)=300", j.M())
	}
}
