package lsh

import (
	"math"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// buildSmall builds a single-table index over a handful of orthogonal and
// duplicated vectors so bucket structure is predictable.
func buildSmall(t *testing.T, k int) (*Index, []vecmath.Vector) {
	t.Helper()
	data := []vecmath.Vector{
		vecmath.FromDims([]uint32{1, 2, 3}),
		vecmath.FromDims([]uint32{1, 2, 3}), // duplicate of 0
		vecmath.FromDims([]uint32{1, 2, 3}), // duplicate of 0
		vecmath.FromDims([]uint32{100, 101, 102}),
		vecmath.FromDims([]uint32{200, 201}),
		vecmath.FromDims([]uint32{300}),
	}
	idx, err := Build(data, NewSimHash(7), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return idx, data
}

func TestBuildValidation(t *testing.T) {
	v := []vecmath.Vector{vecmath.FromDims([]uint32{1})}
	if _, err := Build(nil, NewSimHash(1), 4, 1); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Build(v, NewSimHash(1), 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Build(v, NewSimHash(1), 4, 0); err == nil {
		t.Error("ℓ=0 accepted")
	}
	if _, err := Build(v, nil, 4, 1); err == nil {
		t.Error("nil family accepted")
	}
	if _, err := Build(v, fakeFamily{NewSimHash(1)}, 4, 1); err == nil {
		t.Error("family without a signing engine accepted")
	}
	if _, err := SignDigest(v, fakeFamily{NewSimHash(1)}, 4, 1, SignConfig{}); err == nil {
		t.Error("SignDigest signed a family without a signing engine")
	}
}

// fakeFamily is a Family the signature engine does not know: SimHash under
// another type.
type fakeFamily struct{ SimHash }

func (fakeFamily) Name() string { return "fake" }

func TestDuplicatesShareBucket(t *testing.T) {
	idx, _ := buildSmall(t, 16)
	tab := idx.Snapshot().Table(0)
	if !tab.SameBucket(0, 1) || !tab.SameBucket(0, 2) || !tab.SameBucket(1, 2) {
		t.Error("identical vectors must always share a bucket")
	}
}

func TestNHMatchesBucketSizes(t *testing.T) {
	idx, _ := buildSmall(t, 16)
	tab := idx.Snapshot().Table(0)
	var want int64
	for _, b := range tab.BucketSizes() {
		want += int64(b) * int64(b-1) / 2
	}
	if got := tab.NH(); got != want {
		t.Errorf("NH = %d, want %d", got, want)
	}
	if tab.NH()+tab.NL() != tab.M() {
		t.Errorf("NH + NL = %d, want M = %d", tab.NH()+tab.NL(), tab.M())
	}
	if tab.M() != 15 { // C(6,2)
		t.Errorf("M = %d, want 15", tab.M())
	}
}

func TestNHMatchesIntraPairEnumeration(t *testing.T) {
	data := randData(200, 50, 8, 17)
	idx, err := Build(data, NewSimHash(3), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tab := range idx.Snapshot().Tables() {
		var count int64
		tab.ForEachIntraPair(func(i, j int32) bool {
			if i >= j {
				t.Fatalf("table %d: pair (%d,%d) not ordered", ti, i, j)
			}
			if !tab.SameBucket(int(i), int(j)) {
				t.Fatalf("table %d: enumerated pair (%d,%d) not co-bucketed", ti, i, j)
			}
			count++
			return true
		})
		if count != tab.NH() {
			t.Errorf("table %d: enumerated %d pairs, NH = %d", ti, count, tab.NH())
		}
	}
}

func randData(n, dims, nnz int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		ds := make([]uint32, 0, nnz)
		for j := 0; j < nnz; j++ {
			ds = append(ds, uint32(rng.Intn(dims)))
		}
		data[i] = vecmath.FromDims(ds)
	}
	return data
}

func TestSamplePairUniformOverStratumH(t *testing.T) {
	idx, _ := buildSmall(t, 16)
	tab := idx.Snapshot().Table(0)
	if tab.NH() < 3 {
		t.Skip("bucket structure degenerate for this seed")
	}
	rng := xrand.New(5)
	counts := map[[2]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		a, b, ok := tab.SamplePair(rng)
		if !ok {
			t.Fatal("SamplePair failed with NH > 0")
		}
		if a == b {
			t.Fatal("sampled identical indices")
		}
		if !tab.SameBucket(a, b) {
			t.Fatal("sampled pair not in same bucket")
		}
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	want := float64(draws) / float64(tab.NH())
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v sampled %d times, want ~%.0f", pair, c, want)
		}
	}
	if int64(len(counts)) != tab.NH() {
		t.Errorf("observed %d distinct pairs, stratum has %d", len(counts), tab.NH())
	}
}

func TestSamplePairEmptyStratum(t *testing.T) {
	// All-distinct orthogonal vectors with large k: no shared buckets.
	data := []vecmath.Vector{
		vecmath.FromDims([]uint32{1}),
		vecmath.FromDims([]uint32{1000}),
	}
	idx, err := Build(data, NewSimHash(13), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.Snapshot().Table(0)
	if tab.NH() != 0 {
		t.Skip("vectors collided under this seed")
	}
	if _, _, ok := tab.SamplePair(xrand.New(1)); ok {
		t.Error("SamplePair should report !ok when NH = 0")
	}
}

func TestKeyOfConsistentWithSameBucket(t *testing.T) {
	data := randData(100, 30, 5, 23)
	idx, err := Build(data, NewSimHash(29), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.Snapshot().Table(0)
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if tab.SameBucket(i, j) != (tab.KeyOf(i) == tab.KeyOf(j)) {
				t.Fatalf("SameBucket(%d,%d) inconsistent with keys", i, j)
			}
		}
	}
}

func TestBucketIDsPartitionVectors(t *testing.T) {
	data := randData(150, 40, 6, 31)
	idx, err := Build(data, NewSimHash(31), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.Snapshot().Table(0)
	seen := make([]bool, len(data))
	total := 0
	tab.ForEachBucket(func(key string, ids []int32) bool {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("vector %d in two buckets", id)
			}
			seen[id] = true
			if tab.KeyOf(int(id)) != key {
				t.Fatalf("vector %d key mismatch", id)
			}
		}
		total += len(ids)
		return true
	})
	if total != len(data) {
		t.Errorf("buckets cover %d of %d vectors", total, len(data))
	}
}

func TestMultiTableIndependence(t *testing.T) {
	data := randData(300, 60, 8, 41)
	idx, err := Build(data, NewSimHash(11), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if idx.L() != 4 {
		t.Fatalf("L = %d", idx.L())
	}
	// Tables use disjoint hash functions, so their keys should differ for
	// most vectors (they'd only match by coincidence).
	tabs := idx.Snapshot().Tables()
	same := 0
	for i := 0; i < 300; i++ {
		if tabs[0].KeyOf(i) == tabs[1].KeyOf(i) {
			same++
		}
	}
	if same > 30 {
		t.Errorf("tables 0 and 1 agree on %d/300 keys; expected near-independence", same)
	}
}

func TestKeyForMatchesIndexedKeys(t *testing.T) {
	data := randData(50, 20, 5, 47)
	idx, err := Build(data, NewSimHash(17), 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < idx.L(); t0++ {
		for i, v := range data {
			if idx.Snapshot().KeyFor(t0, v) != idx.Snapshot().Table(t0).KeyOf(i) {
				t.Fatalf("table %d vector %d: KeyFor disagrees with indexed key", t0, i)
			}
		}
	}
}

func TestQueryFindsDuplicates(t *testing.T) {
	idx, data := buildSmall(t, 16)
	got := idx.Snapshot().Query(data[0])
	found := map[int32]bool{}
	for _, id := range got {
		found[id] = true
	}
	// Identical vectors 0,1,2 must be retrieved when querying vector 0's value.
	for _, want := range []int32{0, 1, 2} {
		if !found[want] {
			t.Errorf("Query missed duplicate id %d (got %v)", want, got)
		}
	}
}

func TestSearchAppliesThreshold(t *testing.T) {
	idx, data := buildSmall(t, 16)
	got := idx.Snapshot().Search(data[0], 0.99)
	for _, id := range got {
		if s := vecmath.Cosine(data[0], data[id]); s < 0.99 {
			t.Errorf("Search returned id %d with sim %v < 0.99", id, s)
		}
	}
	if len(got) < 3 {
		t.Errorf("Search should find the three duplicates, got %v", got)
	}
}

func TestSameAnyBucketAndMultiplicity(t *testing.T) {
	data := randData(100, 30, 6, 53)
	idx, err := Build(data, NewSimHash(19), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			m := idx.Snapshot().BucketMultiplicity(i, j)
			if (m > 0) != idx.Snapshot().SameAnyBucket(i, j) {
				t.Fatalf("multiplicity %d inconsistent with SameAnyBucket", m)
			}
			if m < 0 || m > idx.L() {
				t.Fatalf("multiplicity %d out of range", m)
			}
		}
	}
}

func TestSizeBytesGrowsWithK(t *testing.T) {
	data := randData(500, 80, 10, 61)
	var prev int64
	for _, k := range []int{4, 16, 70} { // 70 forces the wide-key path
		idx, err := Build(data, NewSimHash(23), k, 1)
		if err != nil {
			t.Fatal(err)
		}
		size := idx.Snapshot().SizeBytes()
		if size <= 0 {
			t.Fatalf("k=%d: non-positive size %d", k, size)
		}
		if size < prev {
			t.Errorf("k=%d: size %d shrank below %d; more buckets should cost more", k, size, prev)
		}
		prev = size
	}
}

func TestPackKeyWidePath(t *testing.T) {
	vals := make([]uint64, 70) // 70 bits > 64 with 1-bit values
	vals[0], vals[69] = 1, 1
	k1 := packKey(vals, 1)
	vals[69] = 0
	k2 := packKey(vals, 1)
	if k1 == k2 {
		t.Error("wide packKey lost a bit")
	}
	if len(k1) != 8*70 {
		t.Errorf("wide key length %d", len(k1))
	}
}

func TestPackKeyNarrowCollisionFree(t *testing.T) {
	seen := map[string][2]uint64{}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			k := packKey([]uint64{a, b}, 4)
			if prev, dup := seen[k]; dup {
				t.Fatalf("collision: (%d,%d) and %v", a, b, prev)
			}
			seen[k] = [2]uint64{a, b}
		}
	}
}
