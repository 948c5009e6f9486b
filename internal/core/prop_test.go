package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// propWorld is a randomly generated estimation scenario for property tests:
// a small vector collection, an index, and a threshold.
type propWorld struct {
	Seed uint64
	N    int
	K    int
	Tau  float64
}

func (propWorld) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(propWorld{
		Seed: r.Uint64(),
		N:    20 + r.Intn(180),
		K:    2 + r.Intn(14),
		Tau:  0.05 + 0.95*r.Float64(),
	})
}

func (w propWorld) build(t *testing.T) (*lsh.Snapshot, []vecmath.Vector) {
	t.Helper()
	data := testData(w.N, w.Seed)
	snap, err := lsh.BuildSnapshot(data, lsh.NewSimHash(w.Seed^0xABCD), w.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap, data
}

// TestPropLSHSSEstimateInRange: for any scenario, LSH-SS returns a finite
// estimate in [0, M].
func TestPropLSHSSEstimateInRange(t *testing.T) {
	f := func(w propWorld) bool {
		idx, data := w.build(t)
		e, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil)
		if err != nil {
			return false
		}
		v, err := e.Estimate(w.Tau, xrand.New(w.Seed^1))
		if err != nil {
			return false
		}
		m := pairsOf(len(data))
		return v >= 0 && v <= m && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropDetailConsistency: the per-stratum decomposition always satisfies
// the Algorithm 1 bookkeeping identities.
func TestPropDetailConsistency(t *testing.T) {
	f := func(w propWorld) bool {
		idx, data := w.build(t)
		e, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil)
		if err != nil {
			return false
		}
		d, err := e.EstimateDetailed(w.Tau, xrand.New(w.Seed^2))
		if err != nil {
			return false
		}
		_, _, delta, _, _ := e.Params()
		switch {
		case d.JH < 0 || d.JL < 0 || d.Estimate < 0:
			return false
		case d.HitsL > d.TakenL:
			return false
		case d.ReliableL != (d.HitsL >= delta):
			return false
		case !d.ReliableL && d.JL != float64(d.HitsL):
			return false // safe lower bound must be the raw count
		case math.Abs(d.Estimate-math.Min(d.JH+d.JL, pairsOf(len(data)))) > 1e-9:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropDampNeverBelowSafeBound: for the same random stream, the dampened
// estimate is at least the safe-lower-bound estimate (c_s ≥ 0 scale-up adds
// mass; it never removes the observed hits' worth of evidence entirely...
// strictly, Ĵ_L(damped) ≥ 0 and Ĵ_H identical).
func TestPropDampedJHMatchesPlain(t *testing.T) {
	f := func(w propWorld) bool {
		idx, _ := w.build(t)
		plain, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil)
		if err != nil {
			return false
		}
		damped, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil, WithDamp(DampAuto, 0))
		if err != nil {
			return false
		}
		// Identical RNG seeds → identical sampling paths → identical J_H and
		// identical SampleL trajectories; only the final scaling differs.
		a, err := plain.EstimateDetailed(w.Tau, xrand.New(w.Seed^3))
		if err != nil {
			return false
		}
		b, err := damped.EstimateDetailed(w.Tau, xrand.New(w.Seed^3))
		if err != nil {
			return false
		}
		if a.JH != b.JH || a.HitsL != b.HitsL || a.TakenL != b.TakenL {
			return false
		}
		if a.ReliableL && a.JL != b.JL {
			return false // reliable branch is identical in both modes
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropRSInRange mirrors the range property for both baselines.
func TestPropRSInRange(t *testing.T) {
	f := func(w propWorld) bool {
		data := testData(w.N, w.Seed)
		pop, err := NewRSPop(data, nil, 50)
		if err != nil {
			return false
		}
		cross, err := NewRSCross(data, nil, 50)
		if err != nil {
			return false
		}
		m := pairsOf(len(data))
		for _, e := range []Estimator{pop, cross} {
			v, err := e.Estimate(w.Tau, xrand.New(w.Seed^4))
			if err != nil || v < 0 || v > m || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropTauMonotoneTruth: exact join counts are non-increasing in τ, and
// LSH-SS's stratum-H truth J_H respects the same ordering — a cross-check
// between the index enumeration and the similarity measure.
func TestPropStratumMonotone(t *testing.T) {
	f := func(w propWorld) bool {
		idx, data := w.build(t)
		tab := idx.Table(0)
		lo, hi := w.Tau*0.5, w.Tau
		var jhLo, jhHi int64
		tab.ForEachIntraPair(func(i, j int32) bool {
			s := vecmath.Cosine(data[i], data[j])
			if s >= lo {
				jhLo++
			}
			if s >= hi {
				jhHi++
			}
			return true
		})
		return jhLo >= jhHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
