package core

import (
	"math"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

func simhashIndex(t *testing.T, n int, k, ell int, dataSeed, hashSeed uint64) *lsh.Snapshot {
	t.Helper()
	data := testData(n, dataSeed)
	snap, err := lsh.BuildSnapshot(data, lsh.NewSimHash(hashSeed), k, ell)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestJUValidation(t *testing.T) {
	idx := simhashIndex(t, 50, 8, 1, 1, 2)
	if _, err := NewMergedJU(nil, JUClosedForm); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := NewMergedJU(lsh.SingleSnapshot(idx), JUMode(99)); err == nil {
		t.Error("bogus mode accepted")
	}
	e, err := NewMergedJU(lsh.SingleSnapshot(idx), JUClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(0, nil); err == nil {
		t.Error("tau=0 accepted")
	}
}

// TestJUClosedFormArithmetic verifies Equation (4) symbolically: plug in a
// table with known NH, M, k and compare against a direct evaluation.
func TestJUClosedFormArithmetic(t *testing.T) {
	idx := simhashIndex(t, 200, 10, 1, 3, 4)
	tab := idx.Table(0)
	e, err := NewMergedJU(lsh.SingleSnapshot(idx), JUClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.2, 0.5, 0.8} {
		got, err := e.Estimate(tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(tab.K())
		var geo float64
		for i := 0; i < tab.K(); i++ {
			geo += math.Pow(tau, float64(i))
		}
		raw := ((k+1)*float64(tab.NH()) - math.Pow(tau, k)*float64(tab.M())) / geo
		want := raw
		if want < 0 {
			want = 0
		}
		if want > float64(tab.M()) {
			want = float64(tab.M())
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("tau=%v: got %v, want %v", tau, got, want)
		}
	}
}

// TestJUNumericMatchesClosedFormForMinHash: with MinHash, p(s) = s exactly,
// so numeric integration must reproduce Equation (4).
func TestJUNumericMatchesClosedFormForMinHash(t *testing.T) {
	data := testData(300, 5)
	fam := lsh.NewMinHash(6)
	idx, err := lsh.BuildSnapshot(data, fam, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := NewMergedJU(lsh.SingleSnapshot(idx), JUClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := NewMergedJU(lsh.SingleSnapshot(idx), JUNumeric)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.3, 0.5, 0.7} {
		a, err := closed.Estimate(tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := numeric.Estimate(tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 0.02*(1+math.Abs(a)) {
			t.Errorf("tau=%v: closed %v vs numeric %v", tau, a, b)
		}
	}
}

// TestJUNumericDiffersForSimHash: the real sign-projection curve is not
// p(s)=s, so the two modes should disagree — that is the point of the
// ablation.
func TestJUNumericDiffersForSimHash(t *testing.T) {
	idx := simhashIndex(t, 300, 10, 1, 7, 8)
	closed, _ := NewMergedJU(lsh.SingleSnapshot(idx), JUClosedForm)
	numeric, _ := NewMergedJU(lsh.SingleSnapshot(idx), JUNumeric)
	differs := false
	for _, tau := range []float64{0.3, 0.5, 0.7} {
		a, _ := closed.Estimate(tau, nil)
		b, _ := numeric.Estimate(tau, nil)
		if math.Abs(a-b) > 0.05*(1+math.Abs(a)) {
			differs = true
		}
	}
	if !differs {
		t.Error("closed-form and numeric JU agree everywhere under SimHash; expected divergence")
	}
}

func TestJUBounded(t *testing.T) {
	idx := simhashIndex(t, 100, 12, 1, 9, 10)
	for _, mode := range []JUMode{JUClosedForm, JUNumeric} {
		e, err := NewMergedJU(lsh.SingleSnapshot(idx), mode)
		if err != nil {
			t.Fatal(err)
		}
		m := float64(idx.Table(0).M())
		for tau := 0.05; tau <= 1.0; tau += 0.05 {
			v, err := e.Estimate(tau, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 || v > m || math.IsNaN(v) {
				t.Fatalf("mode %v tau=%v: estimate %v out of [0,%v]", mode, tau, v, m)
			}
		}
	}
}

func TestSimpson(t *testing.T) {
	// ∫₀¹ s² ds = 1/3.
	got := simpson(func(s float64) float64 { return s * s }, 0, 1, 64)
	if math.Abs(got-1.0/3.0) > 1e-10 {
		t.Errorf("simpson s² = %v", got)
	}
	// ∫₀^π sin = 2.
	got = simpson(math.Sin, 0, math.Pi, 128)
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("simpson sin = %v", got)
	}
	if simpson(math.Sin, 1, 1, 10) != 0 {
		t.Error("empty interval should integrate to 0")
	}
	// Odd panel counts are rounded up rather than corrupting the result.
	odd := simpson(func(s float64) float64 { return s }, 0, 1, 3)
	if math.Abs(odd-0.5) > 1e-10 {
		t.Errorf("odd-panel simpson = %v", odd)
	}
}

func TestConditionalProbsProperties(t *testing.T) {
	fam := lsh.NewSimHash(1)
	for _, k := range []int{1, 5, 20} {
		for _, tau := range []float64{0.1, 0.5, 0.9} {
			pht, phf := conditionalProbs(fam, k, tau)
			if pht < 0 || pht > 1 || phf < 0 || phf > 1 {
				t.Fatalf("k=%d tau=%v: probabilities out of range: %v, %v", k, tau, pht, phf)
			}
			if pht < phf {
				t.Errorf("k=%d tau=%v: P(H|T)=%v < P(H|F)=%v; high-similarity pairs must collide more", k, tau, pht, phf)
			}
		}
	}
}

func TestJUDeterministic(t *testing.T) {
	idx := simhashIndex(t, 100, 8, 1, 11, 12)
	e, _ := NewMergedJU(lsh.SingleSnapshot(idx), JUClosedForm)
	a, _ := e.Estimate(0.5, xrand.New(1))
	b, _ := e.Estimate(0.5, xrand.New(999))
	if a != b {
		t.Error("JU should not depend on the RNG")
	}
}
