package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewSortsAndMerges(t *testing.T) {
	v, err := New([]Entry{{Dim: 5, Weight: 2}, {Dim: 1, Weight: 1}, {Dim: 5, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	es := v.Entries()
	if len(es) != 2 {
		t.Fatalf("want 2 entries, got %v", es)
	}
	if es[0].Dim != 1 || es[0].Weight != 1 {
		t.Errorf("entry 0 = %v", es[0])
	}
	if es[1].Dim != 5 || es[1].Weight != 5 {
		t.Errorf("entry 1 = %v (duplicate dims should sum)", es[1])
	}
}

func TestNewDropsZeroAndCancelled(t *testing.T) {
	v, err := New([]Entry{{Dim: 2, Weight: 1}, {Dim: 2, Weight: -1}, {Dim: 3, Weight: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsZero() {
		t.Errorf("want zero vector, got %v", v)
	}
}

func TestNewRejectsNonFinite(t *testing.T) {
	if _, err := New([]Entry{{Dim: 1, Weight: float32(math.NaN())}}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := New([]Entry{{Dim: 1, Weight: float32(math.Inf(1))}}); err == nil {
		t.Error("Inf weight accepted")
	}
}

func TestFromDims(t *testing.T) {
	v := FromDims([]uint32{7, 3, 3, 9})
	if v.NNZ() != 3 {
		t.Fatalf("want 3 distinct dims, got %d", v.NNZ())
	}
	if v.Weight(3) != 1 || v.Weight(7) != 1 || v.Weight(9) != 1 || v.Weight(4) != 0 {
		t.Errorf("unexpected weights: %v", v)
	}
	if math.Abs(v.Norm()-math.Sqrt(3)) > 1e-12 {
		t.Errorf("norm %v, want sqrt(3)", v.Norm())
	}
}

func TestFromMap(t *testing.T) {
	v, err := FromMap(map[uint32]float32{4: 2, 1: -1})
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 || v.Weight(4) != 2 || v.Weight(1) != -1 {
		t.Errorf("bad vector: %v", v)
	}
}

func TestDotBasic(t *testing.T) {
	u := mustNew([]Entry{{1, 1}, {2, 2}, {5, 3}})
	v := mustNew([]Entry{{2, 4}, {5, 1}, {9, 7}})
	if got := Dot(u, v); got != 2*4+3*1 {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := Dot(u, Vector{}); got != 0 {
		t.Errorf("Dot with zero = %v", got)
	}
}

// TestDotSymmetric: Dot, Cosine and Jaccard return the same bits in both
// argument orders, which lets an estimator score an unordered pair once
// (core.SimFunc). Besides a hand-made pair, the inputs are random vectors
// with negative weights, at equal lengths (the merge) and at length ratios
// past the ×8 cut-off (the gallop).
func TestDotSymmetric(t *testing.T) {
	pairs := [][2]Vector{{
		mustNew([]Entry{{0, 1.5}, {3, -2}, {100, 0.25}}),
		mustNew([]Entry{{3, 4}, {100, 8}}),
	}}
	r := rand.New(rand.NewSource(78))
	randVec := func(nnz, span int) Vector {
		es := make([]Entry, nnz)
		for i, d := range r.Perm(span)[:nnz] {
			es[i] = Entry{Dim: uint32(d), Weight: float32(3 * r.NormFloat64())}
		}
		return mustNew(es)
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		pairs = append(pairs,
			[2]Vector{randVec(n, 3*n), randVec(n, 3*n)},
			[2]Vector{randVec(n, 20*n), randVec(9*n+r.Intn(8*n), 20*n)})
	}
	for _, p := range pairs {
		u, v := p[0], p[1]
		for _, f := range []struct {
			name string
			fn   func(u, v Vector) float64
		}{{"Dot", Dot}, {"Cosine", Cosine}, {"Jaccard", Jaccard}} {
			if a, b := f.fn(u, v), f.fn(v, u); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s not bit-symmetric: %v vs %v for %v, %v", f.name, a, b, u, v)
			}
		}
	}
}

func TestDotGallopMatchesMerge(t *testing.T) {
	// Long vector forces the galloping path for the short one.
	long := make([]Entry, 0, 1000)
	for i := 0; i < 1000; i++ {
		long = append(long, Entry{Dim: uint32(2 * i), Weight: float32(i%7) + 1})
	}
	lv := mustNew(long)
	short := mustNew([]Entry{{0, 1}, {500, 2}, {999, 3}, {1998, 4}})
	got := Dot(short, lv)
	// Compute expected by brute force.
	var want float64
	for _, e := range short.Entries() {
		want += float64(e.Weight) * float64(lv.Weight(e.Dim))
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("gallop dot = %v, want %v", got, want)
	}
}

func TestCosineRangeAndIdentity(t *testing.T) {
	u := mustNew([]Entry{{1, 3}, {4, 4}})
	if c := Cosine(u, u); math.Abs(c-1) > 1e-12 {
		t.Errorf("cos(u,u) = %v, want 1", c)
	}
	v := mustNew([]Entry{{2, 1}})
	if c := Cosine(u, v); c != 0 {
		t.Errorf("cos of disjoint = %v, want 0", c)
	}
	if c := Cosine(u, Vector{}); c != 0 {
		t.Errorf("cos with zero vector = %v, want 0", c)
	}
}

func TestCosineKnownValue(t *testing.T) {
	u := mustNew([]Entry{{0, 1}, {1, 0}})
	_ = u
	a := mustNew([]Entry{{0, 1}})
	b := mustNew([]Entry{{0, 1}, {1, 1}})
	want := 1 / math.Sqrt2
	if c := Cosine(a, b); math.Abs(c-want) > 1e-9 {
		t.Errorf("cos = %v, want %v", c, want)
	}
}

func TestCosineBinaryVectors(t *testing.T) {
	// For binary vectors cos = |A∩B| / sqrt(|A||B|).
	a := FromDims([]uint32{1, 2, 3, 4})
	b := FromDims([]uint32{3, 4, 5})
	want := 2 / math.Sqrt(4*3)
	if c := Cosine(a, b); math.Abs(c-want) > 1e-9 {
		t.Errorf("cos = %v, want %v", c, want)
	}
}

func TestNormalized(t *testing.T) {
	u := mustNew([]Entry{{1, 3}, {4, 4}})
	n := u.Normalized()
	if math.Abs(n.Norm()-1) > 1e-6 {
		t.Errorf("normalized norm = %v", n.Norm())
	}
	if math.Abs(Cosine(u, n)-1) > 1e-6 {
		t.Errorf("normalization changed direction")
	}
	z := Vector{}
	if !z.Normalized().IsZero() {
		t.Error("zero vector should normalize to itself")
	}
}

func TestScale(t *testing.T) {
	u := mustNew([]Entry{{1, 2}, {3, -4}})
	s := u.Scale(0.5)
	if s.Weight(1) != 1 || s.Weight(3) != -2 {
		t.Errorf("scale: %v", s)
	}
	if !u.Scale(0).IsZero() {
		t.Error("scale by 0 should be zero vector")
	}
	if got := u.Scale(1); !Equal(got, u) {
		t.Error("scale by 1 should be identity")
	}
}

func TestAdd(t *testing.T) {
	u := mustNew([]Entry{{1, 1}, {2, 2}})
	v := mustNew([]Entry{{2, -2}, {3, 3}})
	s := Add(u, v)
	if s.Weight(1) != 1 || s.Weight(2) != 0 || s.Weight(3) != 3 || s.NNZ() != 2 {
		t.Errorf("Add = %v", s)
	}
}

func TestJaccardAndOverlap(t *testing.T) {
	a := FromDims([]uint32{1, 2, 3})
	b := FromDims([]uint32{2, 3, 4, 5})
	if o := Overlap(a, b); o != 2 {
		t.Errorf("Overlap = %d, want 2", o)
	}
	if j := Jaccard(a, b); math.Abs(j-2.0/5.0) > 1e-12 {
		t.Errorf("Jaccard = %v, want 0.4", j)
	}
	if j := Jaccard(Vector{}, Vector{}); j != 0 {
		t.Errorf("Jaccard of zeros = %v", j)
	}
	if j := Jaccard(a, a); j != 1 {
		t.Errorf("Jaccard(a,a) = %v", j)
	}
}

func TestWeightLookup(t *testing.T) {
	v := mustNew([]Entry{{10, 1}, {20, 2}, {30, 3}})
	cases := []struct {
		d uint32
		w float32
	}{{10, 1}, {20, 2}, {30, 3}, {0, 0}, {15, 0}, {31, 0}}
	for _, c := range cases {
		if got := v.Weight(c.d); got != c.w {
			t.Errorf("Weight(%d) = %v, want %v", c.d, got, c.w)
		}
	}
}

func TestMaxDim(t *testing.T) {
	if (Vector{}).MaxDim() != 0 {
		t.Error("zero vector MaxDim should be 0")
	}
	v := mustNew([]Entry{{7, 1}})
	if v.MaxDim() != 8 {
		t.Errorf("MaxDim = %d, want 8", v.MaxDim())
	}
	// The top dimension's dense size is 2³², which must not wrap to 0.
	top := mustNew([]Entry{{3, 1}, {math.MaxUint32, 1}})
	if top.MaxDim() != 1<<32 {
		t.Errorf("MaxDim at the top dimension = %d, want %d", top.MaxDim(), uint64(1)<<32)
	}
}

func TestStringForm(t *testing.T) {
	v := mustNew([]Entry{{3, 0.5}, {17, 1.25}})
	if got := v.String(); got != "{3:0.5 17:1.25}" {
		t.Errorf("String = %q", got)
	}
}
