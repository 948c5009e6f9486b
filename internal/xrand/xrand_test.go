package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("step %d: same seed diverged: %d vs %d", i, x, y)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 equal outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	// The split stream must not equal the parent's continued stream.
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split stream tracks parent: %d/64 equal", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(9)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 3} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

// refUint64n is Uint64n with the rejection threshold computed on every
// call, the textbook form of Lemire's method.
func refUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// TestUint64nMatchesReference: computing the threshold only when the low
// word is below n changes neither the values nor the number of words drawn.
// At n = 2⁶³+1 about half the draws reject.
func TestUint64nMatchesReference(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 5, 1000, 1<<32 + 1, 1<<63 - 1, 1<<63 + 1, math.MaxUint64} {
		for seed := uint64(1); seed <= 8; seed++ {
			got, want := New(seed), New(seed)
			for i := 0; i < 2000; i++ {
				if g, w := got.Uint64n(n), refUint64n(want, n); g != w {
					t.Fatalf("n=%d seed=%d draw %d: Uint64n = %d, reference %d", n, seed, i, g, w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("n=%d seed=%d: next Uint64 %d, reference %d: words drawn differ", n, seed, g, w)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("gaussian mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("gaussian variance %v too far from 1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestKeyedGaussianDeterministic(t *testing.T) {
	if KeyedGaussian(1, 2, 3) != KeyedGaussian(1, 2, 3) {
		t.Fatal("KeyedGaussian not deterministic")
	}
	if KeyedGaussian(1, 2, 3) == KeyedGaussian(1, 2, 4) {
		t.Fatal("KeyedGaussian ignores dim")
	}
	if KeyedGaussian(1, 2, 3) == KeyedGaussian(1, 3, 3) {
		t.Fatal("KeyedGaussian ignores fn")
	}
	if KeyedGaussian(1, 2, 3) == KeyedGaussian(2, 2, 3) {
		t.Fatal("KeyedGaussian ignores seed")
	}
}

func TestKeyedGaussianMoments(t *testing.T) {
	const n = 100000
	var sum, sumsq float64
	for i := uint64(0); i < n; i++ {
		x := KeyedGaussian(99, 0, i)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("keyed gaussian mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("keyed gaussian variance %v too far from 1", variance)
	}
}

func TestKeyedUniformRange(t *testing.T) {
	f := func(seed, fn, dim uint64) bool {
		u := KeyedUniform(seed, fn, dim)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMix2Mix3Sensitivity(t *testing.T) {
	f := func(a, b uint64) bool {
		// Swapping arguments should (near-always) change the output; we only
		// require the property for a != b.
		if a == b {
			return true
		}
		return Mix2(a, b) != Mix2(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b, c uint64) bool {
		return Mix3(a, b, c) == Mix3(a, b, c)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) should fail")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10, 0) should fail")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NewZipf(10, NaN) should fail")
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z, err := NewZipf(1000, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(1000) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestZipfHeadHeavierThanTail(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if z.Prob(0) <= z.Prob(99) {
		t.Errorf("rank 0 prob %v not heavier than rank 99 prob %v", z.Prob(0), z.Prob(99))
	}
	r := New(17)
	const draws = 50000
	head := 0
	for i := 0; i < draws; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
		if v < 10 {
			head++
		}
	}
	// With s=1 over 100 ranks, the top-10 mass is about 56%.
	frac := float64(head) / draws
	if frac < 0.45 || frac > 0.68 {
		t.Errorf("head mass %v outside expected band", frac)
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	z, err := NewZipf(20, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := New(23)
	const draws = 200000
	counts := make([]int, 20)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for i := 0; i < 20; i++ {
		want := z.Prob(i) * draws
		if want < 50 {
			continue // too rare for a tight check
		}
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("rank %d: observed %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkKeyedGaussian(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = KeyedGaussian(1, uint64(i), uint64(i*7))
	}
	_ = sink
}

func BenchmarkZipfSample(b *testing.B) {
	z, _ := NewZipf(56000, 1.05)
	r := New(2)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Sample(r)
	}
	_ = sink
}

// TestRowFillsMatchAt pins the batched row fills to the per-stream At loop:
// for random (seed, fn-count, dim) triples, FillGaussRow / FillHashRow must
// reproduce streams[f].At(dim) bit for bit at every length the 4-wide unroll
// can take.
func TestRowFillsMatchAt(t *testing.T) {
	rng := New(99)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 20, 33, 160} {
		seed := rng.Uint64()
		gs := make([]GaussStream, n)
		hs := make([]HashStream, n)
		for f := range gs {
			gs[f] = NewGaussStream(seed, uint64(f))
			hs[f] = NewHashStream(seed, uint64(f))
		}
		g64 := make([]float64, n)
		h64 := make([]uint64, n)
		for rep := 0; rep < 16; rep++ {
			dim := rng.Uint64() >> uint(rep%33)
			FillGaussRow(g64, gs, dim)
			FillHashRow(h64, hs, dim)
			for f := 0; f < n; f++ {
				want := gs[f].At(dim)
				if math.Float64bits(g64[f]) != math.Float64bits(want) {
					t.Fatalf("FillGaussRow n=%d f=%d dim=%d: %v != %v", n, f, dim, g64[f], want)
				}
				if h64[f] != hs[f].At(dim) {
					t.Fatalf("FillHashRow n=%d f=%d dim=%d: %d != %d", n, f, dim, h64[f], hs[f].At(dim))
				}
			}
		}
	}
}

// BenchmarkGaussRowFill measures the batched fused-row fill at the engine's
// hot shape (k=20), against the per-stream At loop it replaces.
func BenchmarkGaussRowFill(b *testing.B) {
	gs := make([]GaussStream, 20)
	for f := range gs {
		gs[f] = NewGaussStream(7, uint64(f))
	}
	dst := make([]float64, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillGaussRow(dst, gs, uint64(i))
	}
}

func BenchmarkGaussRowAtLoop(b *testing.B) {
	gs := make([]GaussStream, 20)
	for f := range gs {
		gs[f] = NewGaussStream(7, uint64(f))
	}
	dst := make([]float64, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := range gs {
			dst[f] = gs[f].At(uint64(i))
		}
	}
}

// TestBatchedRowsMatchRowFill pins FillGaussRows to the per-row fill bit for
// bit, across widths that do and don't qualify for the vector prep kernel and
// across enough rows to cover several scratch blocks (including a final
// partial one, which must not inherit stale tail flags).
func TestBatchedRowsMatchRowFill(t *testing.T) {
	rng := New(7)
	for _, k := range []int{4, 5, 7, 20} {
		for _, rows := range []int{1, 3, 8, 700} {
			seed := rng.Uint64()
			gs := make([]GaussStream, k)
			for f := range gs {
				gs[f] = NewGaussStream(seed, uint64(f))
			}
			dims := make([]uint32, rows)
			for i := range dims {
				dims[i] = uint32(rng.Uint64())
			}
			got := make([]float64, rows*k)
			FillGaussRows(got, gs, dims)
			want := make([]float64, k)
			for r, d := range dims {
				FillGaussRow(want, gs, uint64(d))
				for f := 0; f < k; f++ {
					if math.Float64bits(got[r*k+f]) != math.Float64bits(want[f]) {
						t.Fatalf("FillGaussRows k=%d rows=%d r=%d f=%d dim=%d: %x != %x",
							k, rows, r, f, d, math.Float64bits(got[r*k+f]), math.Float64bits(want[f]))
					}
				}
			}
		}
	}
}
