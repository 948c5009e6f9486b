package lsh

import (
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func benchData(n, dims, nnz int) []vecmath.Vector {
	rng := xrand.New(1)
	data := make([]vecmath.Vector, n)
	for i := range data {
		ds := make([]uint32, nnz)
		for j := range ds {
			ds[j] = uint32(rng.Intn(dims))
		}
		data[i] = vecmath.FromDims(ds)
	}
	return data
}

// BenchmarkBuildK20 measures single-table index construction at the paper's
// k = 20 over DBLP-shaped vectors.
func BenchmarkBuildK20(b *testing.B) {
	data := benchData(5000, 56000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(data, NewSimHash(uint64(i+1)), 20, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildK20Naive measures the same construction through the naive
// per-vector Family.Hash path the engine replaced, as the speedup reference.
func BenchmarkBuildK20Naive(b *testing.B) {
	data := benchData(5000, 56000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewSimHash(uint64(i + 1))
		keys := naiveKeys(data, f, 20, 1)
		if tab := buildTable(keys[0], 20, 0, 1); tab.N() != len(data) {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkInsertBatch measures bulk loading 1000 vectors into an existing
// k=20 index through the engine-signed batch path.
func BenchmarkInsertBatch(b *testing.B) {
	data := benchData(6000, 56000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, err := Build(data[:5000], NewSimHash(uint64(i+1)), 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		idx.InsertBatch(data[5000:])
	}
}

// BenchmarkInsertLoop is the single-Insert loop InsertBatch replaced.
func BenchmarkInsertLoop(b *testing.B) {
	data := benchData(6000, 56000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, err := Build(data[:5000], NewSimHash(uint64(i+1)), 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, v := range data[5000:] {
			idx.Insert(v)
		}
	}
}

// BenchmarkSimHash20 measures hashing one vector with 20 functions.
func BenchmarkSimHash20(b *testing.B) {
	data := benchData(1, 56000, 14)
	f := NewSimHash(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fn := 0; fn < 20; fn++ {
			_ = f.Hash(fn, data[0])
		}
	}
}

// BenchmarkMinHash20 measures MinHash with 20 functions on the same vector.
func BenchmarkMinHash20(b *testing.B) {
	data := benchData(1, 56000, 14)
	f := NewMinHash(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fn := 0; fn < 20; fn++ {
			_ = f.Hash(fn, data[0])
		}
	}
}

// BenchmarkSamplePair measures one weighted stratum-H pair draw.
func BenchmarkSamplePair(b *testing.B) {
	data := benchData(5000, 500, 8) // dense enough for real buckets
	idx, err := Build(data, NewSimHash(3), 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	tab := idx.Table(0)
	if tab.NH() == 0 {
		b.Skip("degenerate bucket structure")
	}
	rng := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tab.SamplePair(rng); !ok {
			b.Fatal("sampling failed")
		}
	}
}

// BenchmarkQuery measures candidate retrieval across 4 tables.
func BenchmarkQuery(b *testing.B) {
	data := benchData(5000, 500, 8)
	idx, err := Build(data, NewSimHash(3), 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Query(data[i%len(data)])
	}
}

// BenchmarkVocabularyLUT measures the dimension→row assignment pass in its
// dense regime: max dimension small enough (≤ 8·NNZ) that the epoch-stamped
// direct lookup table is used.
func BenchmarkVocabularyLUT(b *testing.B) {
	data := benchData(5000, 56000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vocabulary(data).release()
	}
}

// BenchmarkVocabularyMap measures the same pass in the sparse regime: a huge
// dimension space forces the pre-sized map path.
func BenchmarkVocabularyMap(b *testing.B) {
	data := benchData(5000, 50_000_000, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vocabulary(data).release()
	}
}
