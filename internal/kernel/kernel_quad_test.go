package kernel

import (
	"math"
	"testing"
)

// nanEq is bitwise equality except that any NaN matches any NaN: with three
// chained adds the compiler is free to swap commutative operands between
// separately compiled expressions, and x86 resolves two-NaN operations from
// src1 — so NaN sign/payload is not stable across forms even in pure Go.
// Every non-NaN result (including infinities and zeros signs) must still
// match bit for bit.
func nanEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func refF64MulAdd4(dst, r1, r2, r3, r4 []float64, w1, w2, w3, w4 float64) {
	for j := range dst {
		dst[j] = (((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
	}
}

// TestF64MulAdd4MatchesScalar sweeps lengths 0..67 with adversarial values
// and pins the quad fold to its definitional association — which must also
// equal four sequential single folds, the order the naive signing path uses.
func TestF64MulAdd4MatchesScalar(t *testing.T) {
	rng := newTestRNG(11)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 8; rep++ {
			dst := make([]float64, n)
			rows := make([][]float64, 4)
			fill64(rng, dst)
			for i := range rows {
				rows[i] = make([]float64, n)
				fill64(rng, rows[i])
			}
			w1, w2, w3, w4 := rng.Norm(), rng.Norm(), rng.Norm(), rng.Norm()

			want := append([]float64(nil), dst...)
			refF64MulAdd4(want, rows[0], rows[1], rows[2], rows[3], w1, w2, w3, w4)
			got := append([]float64(nil), dst...)
			F64MulAdd4(got, rows[0], rows[1], rows[2], rows[3], w1, w2, w3, w4)
			seq := append([]float64(nil), dst...)
			refF64MulAdd(seq, rows[0], w1)
			refF64MulAdd(seq, rows[1], w2)
			refF64MulAdd(seq, rows[2], w3)
			refF64MulAdd(seq, rows[3], w4)
			for j := range want {
				if !nanEq(want[j], got[j]) {
					t.Fatalf("%s: F64MulAdd4 n=%d lane %d: %x != %x", Impl, n, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
				if !nanEq(seq[j], got[j]) {
					t.Fatalf("%s: F64MulAdd4 n=%d lane %d differs from sequential folds", Impl, n, j)
				}
			}
		}
	}
}
