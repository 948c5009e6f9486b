package core

import (
	"math"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func bipartiteFixture(t *testing.T) (*lsh.Bipartite, []vecmath.Vector, []vecmath.Vector) {
	t.Helper()
	left := testData(300, 61)
	right := testData(250, 62)
	// Make the cross join non-trivial at high τ: plant identical vectors on
	// both sides.
	for i := 0; i < 10; i++ {
		right[i] = left[i]
	}
	fam := lsh.NewSimHash(63)
	li, err := lsh.BuildSnapshot(left, fam, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := lsh.BuildSnapshot(right, fam, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := lsh.NewBipartite(li, ri, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bp, left, right
}

func TestGeneralRSValidation(t *testing.T) {
	if _, err := NewGeneralRS(nil, testData(10, 1), nil, 5); err == nil {
		t.Error("empty left accepted")
	}
	e, err := NewGeneralRS(testData(10, 1), testData(10, 2), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(0, xrand.New(1)); err == nil {
		t.Error("tau=0 accepted")
	}
}

func TestGeneralRSUnbiased(t *testing.T) {
	_, left, right := bipartiteFixture(t)
	truth := float64(ExactGeneralJoin(left, right, nil, 0.3))
	if truth < 10 {
		t.Fatal("degenerate cross join")
	}
	e, err := NewGeneralRS(left, right, nil, 4000)
	if err != nil {
		t.Fatal(err)
	}
	got := meanEstimate(t, e, 0.3, 100, 64)
	if math.Abs(got-truth) > 0.3*truth {
		t.Errorf("mean %v, truth %v", got, truth)
	}
}

func TestGeneralLSHSSValidation(t *testing.T) {
	if _, err := NewGeneralLSHSS(nil); err == nil {
		t.Error("nil bipartite accepted")
	}
	bp, _, _ := bipartiteFixture(t)
	if _, err := NewGeneralLSHSS(bp, WithSampleSizes(0, 5)); err == nil {
		t.Error("mH=0 accepted")
	}
	if _, err := NewGeneralLSHSS(bp, WithDamp(DampConst, 0)); err == nil {
		t.Error("c_s=0 accepted")
	}
	if _, err := NewGeneralLSHSS(bp, WithDamp(DampConst, 1.5)); err == nil {
		t.Error("c_s=1.5 accepted")
	}
}

func TestGeneralLSHSSAccurateModerate(t *testing.T) {
	bp, left, right := bipartiteFixture(t)
	truth := float64(ExactGeneralJoin(left, right, nil, 0.3))
	// m_L large enough for SampleL's reliable regime at this scale.
	e, err := NewGeneralLSHSS(bp, WithSampleSizes(300, 12000))
	if err != nil {
		t.Fatal(err)
	}
	got := meanEstimate(t, e, 0.3, 60, 65)
	if math.Abs(got-truth) > 0.4*truth {
		t.Errorf("mean %v, truth %v", got, truth)
	}
}

// TestGeneralLSHSSHighThreshold: the planted identical pairs dominate at
// τ = 0.95; LSH-SS must find mass there without exploding.
func TestGeneralLSHSSHighThreshold(t *testing.T) {
	bp, left, right := bipartiteFixture(t)
	truth := float64(ExactGeneralJoin(left, right, nil, 0.95))
	if truth < 5 {
		t.Fatalf("planting failed: truth = %v", truth)
	}
	e, err := NewGeneralLSHSS(bp)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(66)
	for r := 0; r < 30; r++ {
		v, err := e.Estimate(0.95, rng)
		if err != nil {
			t.Fatal(err)
		}
		if v > 50*truth {
			t.Errorf("estimate %v explodes over truth %v", v, truth)
		}
	}
	got := meanEstimate(t, e, 0.95, 50, 67)
	if got < 0.1*truth {
		t.Errorf("mean %v collapsed below truth %v", got, truth)
	}
}

func TestGeneralLSHSSBounded(t *testing.T) {
	bp, _, _ := bipartiteFixture(t)
	e, err := NewGeneralLSHSS(bp, WithDamp(DampAuto, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := float64(bp.M())
	rng := xrand.New(68)
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
}

func TestExactGeneralJoinSymmetricMeasure(t *testing.T) {
	a := testData(40, 71)
	b := testData(50, 72)
	tau := 0.4
	// |J(A,B)| counted row-major must equal column-major.
	ab := ExactGeneralJoin(a, b, nil, tau)
	ba := ExactGeneralJoin(b, a, nil, tau)
	if ab != ba {
		t.Errorf("cross join asymmetric: %d vs %d", ab, ba)
	}
}
