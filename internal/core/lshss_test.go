package core

import (
	"math"
	"testing"

	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func lshssFor(t *testing.T, n int, k int, dataSeed, hashSeed uint64, opts ...LSHSSOption) (*LSHSS, []vecmath.Vector) {
	t.Helper()
	data := testData(n, dataSeed)
	snap, err := lsh.BuildSnapshot(data, lsh.NewSimHash(hashSeed), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, data
}

func TestLSHSSValidation(t *testing.T) {
	data := testData(50, 1)
	snap, err := lsh.BuildSnapshot(data, lsh.NewSimHash(2), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMergedLSHSS(nil, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithTable(1)); err == nil {
		t.Error("out-of-range table accepted")
	}
	if _, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithSampleSizes(0, 10)); err == nil {
		t.Error("mH=0 accepted")
	}
	if _, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithDelta(0)); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithDamp(DampConst, 0)); err == nil {
		t.Error("cs=0 accepted")
	}
	if _, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithDamp(DampConst, 1.2)); err == nil {
		t.Error("cs>1 accepted")
	}
	e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(0, xrand.New(1)); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := e.Estimate(1.2, xrand.New(1)); err == nil {
		t.Error("tau>1 accepted")
	}
}

func TestLSHSSDefaults(t *testing.T) {
	e, data := lshssFor(t, 1000, 10, 3, 4)
	mH, mL, delta, damp, _ := e.Params()
	if mH != len(data) || mL != len(data) {
		t.Errorf("default sample sizes %d/%d, want n=%d", mH, mL, len(data))
	}
	if want := int(math.Ceil(math.Log2(1000))); delta != want {
		t.Errorf("default delta %d, want %d", delta, want)
	}
	if damp != DampOff {
		t.Errorf("default damp mode %v", damp)
	}
	if e.Name() != "LSH-SS" {
		t.Errorf("name %q", e.Name())
	}
}

func TestLSHSSNames(t *testing.T) {
	data := testData(50, 1)
	snap, _ := lsh.BuildSnapshot(data, lsh.NewSimHash(2), 8, 1)
	d, _ := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithDamp(DampAuto, 0))
	if d.Name() != "LSH-SS(D)" {
		t.Errorf("damped name %q", d.Name())
	}
	a, _ := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithAlwaysScale())
	if a.Name() != "LSH-SS(always-scale)" {
		t.Errorf("ablation name %q", a.Name())
	}
}

// TestLSHSSAccurateAtModerateThreshold is the core accuracy contract: when
// SampleL is in its reliable regime (β·m_L comfortably above δ, Theorem 3's
// setting — at this small n that needs m_L of a few n), the mean of repeated
// estimates tracks the true join size.
func TestLSHSSAccurateAtModerateThreshold(t *testing.T) {
	e, data := lshssFor(t, 800, 12, 5, 6, WithSampleSizes(800, 12000))
	tau := 0.3
	truth := float64(exactjoin.BruteForceCount(data, tau))
	if truth < 10 {
		t.Fatalf("degenerate data at tau=%v: J=%v", tau, truth)
	}
	got := meanEstimate(t, e, tau, 60, 7)
	if math.Abs(got-truth) > 0.35*truth {
		t.Errorf("tau=%v: mean estimate %v, truth %v", tau, got, truth)
	}
}

// TestLSHSSGreyAreaUnderestimates documents the behavior §5.1.2 and Fig. 2b
// describe: when β is too small for δ hits within m_L but J_L still carries
// real mass (the "grey area"), plain LSH-SS returns the safe lower bound and
// therefore underestimates; the dampened variant recovers part of the mass.
func TestLSHSSGreyAreaUnderestimates(t *testing.T) {
	e, data := lshssFor(t, 800, 12, 5, 6) // default m_L = n is too small here
	tau := 0.3
	truth := float64(exactjoin.BruteForceCount(data, tau))
	plain := meanEstimate(t, e, tau, 40, 7)
	if plain > 0.8*truth {
		t.Skip("data not in the grey area at this scale")
	}
	damped, dataD := lshssFor(t, 800, 12, 5, 6, WithDamp(DampAuto, 0))
	_ = dataD
	dm := meanEstimate(t, damped, tau, 40, 7)
	if dm <= plain {
		t.Errorf("damped mean %v should exceed safe-lower-bound mean %v", dm, plain)
	}
	_ = data
}

// TestLSHSSHighThresholdNoBlowup: at τ = 0.9 (dominated by duplicates) the
// estimator must neither explode nor collapse to zero — the paper's core
// claim versus random sampling.
func TestLSHSSHighThresholdNoBlowup(t *testing.T) {
	e, data := lshssFor(t, 800, 12, 5, 6)
	truth := float64(exactjoin.BruteForceCount(data, 0.9))
	if truth == 0 {
		t.Fatal("no duplicates in test data")
	}
	rng := xrand.New(8)
	for r := 0; r < 40; r++ {
		v, err := e.Estimate(0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v > 20*truth {
			t.Errorf("run %d: estimate %v explodes over truth %v", r, v, truth)
		}
	}
	got := meanEstimate(t, e, 0.9, 60, 9)
	if got < 0.2*truth {
		t.Errorf("mean estimate %v collapses below truth %v", got, truth)
	}
}

func TestLSHSSDetailInvariants(t *testing.T) {
	e, _ := lshssFor(t, 500, 10, 11, 12)
	rng := xrand.New(13)
	_, _, delta, _, _ := e.Params()
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		for r := 0; r < 10; r++ {
			d, err := e.EstimateDetailed(tau, rng)
			if err != nil {
				t.Fatal(err)
			}
			if d.Estimate < 0 {
				t.Fatalf("negative estimate %v", d.Estimate)
			}
			if d.JH < 0 || d.JL < 0 {
				t.Fatalf("negative stratum estimate: %+v", d)
			}
			if d.ReliableL && d.HitsL < delta {
				t.Fatalf("reliable with %d < δ=%d hits", d.HitsL, delta)
			}
			if !d.ReliableL && d.JL != float64(d.HitsL) {
				t.Fatalf("unreliable SampleL must return safe lower bound: %+v", d)
			}
			if d.ReliableL && d.TakenL == 0 {
				t.Fatalf("reliable with no samples: %+v", d)
			}
		}
	}
}

// TestLSHSSSafeLowerBound: with DampOff and an unreachable δ, Ĵ_L is the raw
// hit count — a guaranteed lower bound on J_L.
func TestLSHSSSafeLowerBound(t *testing.T) {
	e, _ := lshssFor(t, 500, 10, 11, 12, WithDelta(1000000), WithSampleSizes(500, 200))
	rng := xrand.New(14)
	d, err := e.EstimateDetailed(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.ReliableL {
		t.Fatal("δ of 10^6 cannot be reached with 200 samples")
	}
	if d.JL != float64(d.HitsL) {
		t.Errorf("JL = %v, want hit count %d", d.JL, d.HitsL)
	}
}

// TestLSHSSDampedScaleUp: DampConst multiplies the full scale-up by c_s;
// DampAuto by n_L/δ.
func TestLSHSSDampedScaleUp(t *testing.T) {
	data := testData(500, 11)
	snap, err := lsh.BuildSnapshot(data, lsh.NewSimHash(12), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := snap.Table(0)
	mkDet := func(opts ...LSHSSOption) Detail {
		e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.EstimateDetailed(0.6, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := []LSHSSOption{WithDelta(1000000), WithSampleSizes(500, 300)}
	off := mkDet(base...)
	if off.ReliableL {
		t.Skip("unexpectedly reliable; cannot exercise damped branch")
	}
	cs := 0.5
	damped := mkDet(append(base, WithDamp(DampConst, cs))...)
	// Same RNG seed → identical sampling path → deterministic relation.
	if damped.HitsL != off.HitsL || damped.TakenL != off.TakenL {
		t.Fatalf("sampling paths diverged: %+v vs %+v", damped, off)
	}
	nl := float64(tab.NL())
	wantJL := float64(damped.HitsL) * cs * nl / 300
	if math.Abs(damped.JL-wantJL) > 1e-9 {
		t.Errorf("DampConst JL = %v, want %v", damped.JL, wantJL)
	}
	auto := mkDet(append(base, WithDamp(DampAuto, 0))...)
	wantAuto := float64(auto.HitsL) * (float64(auto.HitsL) / 1000000) * nl / 300
	if math.Abs(auto.JL-wantAuto) > 1e-9 {
		t.Errorf("DampAuto JL = %v, want %v", auto.JL, wantAuto)
	}
}

// TestLSHSSAlwaysScaleAblation: disabling the safe-lower-bound rule scales
// by N_L/m_L even when unreliable.
func TestLSHSSAlwaysScaleAblation(t *testing.T) {
	data := testData(500, 11)
	snap, _ := lsh.BuildSnapshot(data, lsh.NewSimHash(12), 10, 1)
	tab := snap.Table(0)
	e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithDelta(1000000), WithSampleSizes(500, 300), WithAlwaysScale())
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.EstimateDetailed(0.6, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if d.ReliableL {
		t.Skip("unexpectedly reliable")
	}
	want := float64(d.HitsL) * float64(tab.NL()) / 300
	if math.Abs(d.JL-want) > 1e-9 {
		t.Errorf("always-scale JL = %v, want %v", d.JL, want)
	}
}

// TestLSHSSVarianceBelowRS reproduces the paper's headline comparison at a
// small scale: at a high threshold the spread of LSH-SS estimates is far
// below RS(pop) with a comparable budget.
func TestLSHSSVarianceBelowRS(t *testing.T) {
	e, data := lshssFor(t, 1000, 12, 15, 16)
	truth := float64(exactjoin.BruteForceCount(data, 0.9))
	if truth == 0 {
		t.Fatal("no high-similarity pairs")
	}
	rs, err := NewRSPop(data, nil, 1500)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(est Estimator, seed uint64) []float64 {
		rng := xrand.New(seed)
		out := make([]float64, 0, 40)
		for r := 0; r < 40; r++ {
			v, err := est.Estimate(0.9, rng)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}
	std := func(xs []float64) float64 {
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
	ss := std(collect(e, 17))
	rp := std(collect(rs, 18))
	if ss >= rp && rp > 0 {
		t.Errorf("LSH-SS std %v not below RS(pop) std %v at τ=0.9", ss, rp)
	}
}

func TestLSHSSJaccard(t *testing.T) {
	data := testData(400, 19)
	fam := lsh.NewMinHash(20)
	snap, err := lsh.BuildSnapshot(data, fam, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), vecmath.Jaccard, WithSampleSizes(400, 60000))
	if err != nil {
		t.Fatal(err)
	}
	var truth float64
	for i := range data {
		for j := i + 1; j < len(data); j++ {
			if vecmath.Jaccard(data[i], data[j]) >= 0.4 {
				truth++
			}
		}
	}
	got := meanEstimate(t, e, 0.4, 60, 21)
	tol := 0.4*truth + 5
	if math.Abs(got-truth) > tol {
		t.Errorf("Jaccard LSH-SS: mean %v, truth %v", got, truth)
	}
}

func TestLSHSSDeterministicGivenRNG(t *testing.T) {
	e, _ := lshssFor(t, 300, 10, 23, 24)
	a, err := e.Estimate(0.5, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Estimate(0.5, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same RNG seed produced %v and %v", a, b)
	}
}
