package kernel

import (
	"math"
	"testing"
)

// testRNG is a tiny local SplitMix64-based generator: the package under test
// sits below xrand in the import graph, so the tests roll their own values.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *testRNG) Intn(n int) int { return int(r.next() % uint64(n)) }

func (r *testRNG) Uint64() uint64 { return r.next() }

// Norm draws an approximately normal value (Irwin-Hall sum of 12 uniforms);
// the tests only need well-spread finite values, not exact gaussians.
func (r *testRNG) Norm() float64 {
	s := -6.0
	for i := 0; i < 12; i++ {
		s += float64(r.next()>>11) * 0x1p-53
	}
	return s
}

// refF64MulAdd is the definitional scalar loop every implementation must
// match bit for bit.
func refF64MulAdd(dst, row []float64, w float64) {
	for j := range dst {
		dst[j] += w * row[j]
	}
}

func refF64MulAdd2(dst, r1, r2 []float64, w1, w2 float64) {
	for j := range dst {
		dst[j] = (dst[j] + w1*r1[j]) + w2*r2[j]
	}
}

func refU64Min(dst, row []uint64) {
	for j := range dst {
		if row[j] < dst[j] {
			dst[j] = row[j]
		}
	}
}

// fill64 draws values that exercise rounding: a mix of ordinary gaussians,
// denormal-scale tinies, huge magnitudes, and the occasional NaN/Inf.
func fill64(rng *testRNG, s []float64) {
	for i := range s {
		switch rng.Intn(20) {
		case 0:
			s[i] = math.Inf(1 - 2*rng.Intn(2))
		case 1:
			s[i] = math.NaN()
		case 2:
			s[i] = rng.Norm() * 1e300
		case 3:
			s[i] = rng.Norm() * 1e-300
		default:
			s[i] = rng.Norm()
		}
	}
}

// TestF64MulAddMatchesScalar sweeps lengths 0..67 (every unroll remainder)
// with adversarial values and requires bit-identical accumulators.
func TestF64MulAddMatchesScalar(t *testing.T) {
	rng := newTestRNG(1)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 8; rep++ {
			dst := make([]float64, n)
			row := make([]float64, n)
			r2 := make([]float64, n)
			fill64(rng, dst)
			fill64(rng, row)
			fill64(rng, r2)
			w1, w2 := rng.Norm(), rng.Norm()

			want := append([]float64(nil), dst...)
			refF64MulAdd(want, row, w1)
			got := append([]float64(nil), dst...)
			F64MulAdd(got, row, w1)
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					t.Fatalf("%s: F64MulAdd n=%d lane %d: %x != %x", Impl, n, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}

			want2 := append([]float64(nil), dst...)
			refF64MulAdd2(want2, row, r2, w1, w2)
			got2 := append([]float64(nil), dst...)
			F64MulAdd2(got2, row, r2, w1, w2)
			// F64MulAdd2 must also equal two sequential single folds.
			seq := append([]float64(nil), dst...)
			refF64MulAdd(seq, row, w1)
			refF64MulAdd(seq, r2, w2)
			for j := range want2 {
				if math.Float64bits(want2[j]) != math.Float64bits(got2[j]) {
					t.Fatalf("%s: F64MulAdd2 n=%d lane %d differs from scalar", Impl, n, j)
				}
				if math.Float64bits(seq[j]) != math.Float64bits(got2[j]) {
					t.Fatalf("%s: F64MulAdd2 n=%d lane %d differs from sequential folds", Impl, n, j)
				}
			}
		}
	}
}

// zeroEq reports bitwise equality, tolerating differing signs of an exact
// zero — the one divergence the Set kernels permit versus folding into a
// zeroed accumulator (0 + -0 is +0; a plain store keeps -0). Sign-based
// consumers (the SimHash bit pack) treat ±0 identically.
func zeroEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// TestF64MulAddSetMatchesScalar pins the Set kernels to their definitional
// expression bit for bit, and to fold-into-zero modulo exact-zero signs.
func TestF64MulAddSetMatchesScalar(t *testing.T) {
	rng := newTestRNG(4)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 8; rep++ {
			dst := make([]float64, n)
			row := make([]float64, n)
			r2 := make([]float64, n)
			fill64(rng, dst) // garbage: Set must fully overwrite
			fill64(rng, row)
			fill64(rng, r2)
			w1, w2 := rng.Norm(), rng.Norm()

			got := append([]float64(nil), dst...)
			F64MulAddSet(got, row, w1)
			zero := make([]float64, n)
			refF64MulAdd(zero, row, w1)
			for j := 0; j < n; j++ {
				if math.Float64bits(got[j]) != math.Float64bits(w1*row[j]) {
					t.Fatalf("%s: F64MulAddSet n=%d lane %d differs from definition", Impl, n, j)
				}
				if !zeroEq(got[j], zero[j]) {
					t.Fatalf("%s: F64MulAddSet n=%d lane %d differs from zero-fold", Impl, n, j)
				}
			}

			got2 := append([]float64(nil), dst...)
			F64MulAdd2Set(got2, row, r2, w1, w2)
			zero2 := make([]float64, n)
			refF64MulAdd2(zero2, row, r2, w1, w2)
			for j := 0; j < n; j++ {
				if math.Float64bits(got2[j]) != math.Float64bits(w1*row[j]+w2*r2[j]) {
					t.Fatalf("%s: F64MulAdd2Set n=%d lane %d differs from definition", Impl, n, j)
				}
				if !zeroEq(got2[j], zero2[j]) {
					t.Fatalf("%s: F64MulAdd2Set n=%d lane %d differs from zero-fold", Impl, n, j)
				}
			}
		}
	}
}

// TestU64MinMatchesScalar sweeps the min-scan kernels.
func TestU64MinMatchesScalar(t *testing.T) {
	rng := newTestRNG(3)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 8; rep++ {
			dst := make([]uint64, n)
			r1 := make([]uint64, n)
			r2 := make([]uint64, n)
			for i := 0; i < n; i++ {
				dst[i] = rng.Uint64()
				r1[i] = rng.Uint64()
				r2[i] = rng.Uint64()
			}

			want := append([]uint64(nil), dst...)
			refU64Min(want, r1)
			got := append([]uint64(nil), dst...)
			U64Min(got, r1)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("%s: U64Min n=%d lane %d: %d != %d", Impl, n, j, got[j], want[j])
				}
			}

			want2 := append([]uint64(nil), dst...)
			refU64Min(want2, r1)
			refU64Min(want2, r2)
			got2 := append([]uint64(nil), dst...)
			U64Min2(got2, r1, r2)
			for j := range want2 {
				if want2[j] != got2[j] {
					t.Fatalf("%s: U64Min2 n=%d lane %d: %d != %d", Impl, n, j, got2[j], want2[j])
				}
			}
		}
	}
}

// The benchmarks compare the compiled-in kernels against the definitional
// scalar loop at the engine's hot shape (a fused k=20 row), so the unroll's
// win — and the purego fallback's cost — is measured, not assumed.

const benchK = 20

func BenchmarkF64MulAddKernel(b *testing.B) {
	dst := make([]float64, benchK)
	row := make([]float64, benchK)
	for i := range row {
		row[i] = float64(i) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F64MulAdd(dst, row, 1.5)
	}
}

func BenchmarkF64MulAddScalarRef(b *testing.B) {
	dst := make([]float64, benchK)
	row := make([]float64, benchK)
	for i := range row {
		row[i] = float64(i) * 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refF64MulAdd(dst, row, 1.5)
	}
}

func BenchmarkF64MulAdd2Kernel(b *testing.B) {
	dst := make([]float64, benchK)
	r1 := make([]float64, benchK)
	r2 := make([]float64, benchK)
	for i := range r1 {
		r1[i] = float64(i) * 0.25
		r2[i] = float64(i) * 0.125
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F64MulAdd2(dst, r1, r2, 1.5, 0.5)
	}
}

func BenchmarkU64MinKernel(b *testing.B) {
	dst := make([]uint64, benchK)
	row := make([]uint64, benchK)
	for i := range dst {
		dst[i] = ^uint64(0)
		row[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		U64Min(dst, row)
	}
}
