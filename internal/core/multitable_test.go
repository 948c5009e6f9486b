package core

import (
	"math"
	"testing"

	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

func TestMedianSSValidation(t *testing.T) {
	if _, err := NewMergedMedianSS(nil, nil); err == nil {
		t.Error("nil index accepted")
	}
}

func TestMedianSSAccuracy(t *testing.T) {
	data := testData(600, 31)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(32), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// m_L large enough that SampleL is in its reliable regime at τ = 0.3.
	e, err := NewMergedMedianSS(lsh.SingleSnapshot(idx), nil, WithSampleSizes(600, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "LSH-SS(median)" {
		t.Errorf("name %q", e.Name())
	}
	truth := float64(exactjoin.BruteForceCount(data, 0.3))
	if truth < 10 {
		t.Fatal("degenerate data")
	}
	got := meanEstimate(t, e, 0.3, 40, 33)
	if math.Abs(got-truth) > 0.45*truth {
		t.Errorf("median estimator mean %v, truth %v", got, truth)
	}
}

// TestMedianReducesSpread: the median over 5 tables should have spread no
// larger than (and typically below) a single-table estimate.
func TestMedianReducesSpread(t *testing.T) {
	data := testData(600, 35)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(36), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	median, err := NewMergedMedianSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(e Estimator, seed uint64) float64 {
		rng := xrand.New(seed)
		var xs []float64
		for r := 0; r < 30; r++ {
			v, err := e.Estimate(0.5, rng)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, v)
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		return math.Sqrt(v / float64(len(xs)))
	}
	ms := spread(median, 37)
	ss := spread(single, 38)
	if ss > 0 && ms > 1.5*ss {
		t.Errorf("median spread %v much larger than single-table %v", ms, ss)
	}
}

func TestVirtualSSValidation(t *testing.T) {
	if _, err := NewMergedVirtualSS(nil, nil); err == nil {
		t.Error("nil index accepted")
	}
}

// TestNHVirtualUnbiased compares the importance-sampling estimate of
// |S_H^∪| against exact enumeration on a small collection.
func TestNHVirtualUnbiased(t *testing.T) {
	data := testData(250, 41)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(42), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var exact float64
	for i := 0; i < len(data); i++ {
		for j := i + 1; j < len(data); j++ {
			if idx.SameAnyBucket(i, j) {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Skip("degenerate: empty union stratum")
	}
	e, err := NewMergedVirtualSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(43)
	var sum float64
	const reps = 30
	for r := 0; r < reps; r++ {
		sum += e.NHVirtual(4000, rng)
	}
	got := sum / reps
	if math.Abs(got-exact) > 0.15*exact {
		t.Errorf("NH(virtual) mean %v, exact %v", got, exact)
	}
}

func TestVirtualSSAccuracy(t *testing.T) {
	data := testData(500, 45)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(46), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMergedVirtualSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "LSH-SS(virtual)" {
		t.Errorf("name %q", e.Name())
	}
	truth := float64(exactjoin.BruteForceCount(data, 0.5))
	if truth < 5 {
		t.Fatal("degenerate data")
	}
	got := meanEstimate(t, e, 0.5, 50, 47)
	if math.Abs(got-truth) > 0.5*truth+5 {
		t.Errorf("virtual estimator mean %v, truth %v", got, truth)
	}
}

func TestVirtualSSBounded(t *testing.T) {
	data := testData(300, 49)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(50), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMergedVirtualSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := pairsOf(len(data))
	rng := xrand.New(51)
	for _, tau := range []float64{0.1, 0.5, 0.9, 1.0} {
		for r := 0; r < 10; r++ {
			v, err := e.Estimate(tau, rng)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > m || math.IsNaN(v) {
				t.Fatalf("tau=%v: estimate %v out of range", tau, v)
			}
		}
	}
	if _, err := e.Estimate(0, rng); err == nil {
		t.Error("tau=0 accepted")
	}
}
