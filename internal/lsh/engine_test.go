package lsh

import (
	"math"
	"runtime"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// naiveKeys computes per-table bucket keys exactly as the pre-engine code
// did: Family.Hash per (vector, function), packKey per table. This is the
// reference the signature engine must match byte for byte.
func naiveKeys(data []vecmath.Vector, f Family, k, ell int) [][]string {
	keys := make([][]string, ell)
	vals := make([]uint64, k)
	for t := 0; t < ell; t++ {
		keys[t] = make([]string, len(data))
		for i, v := range data {
			for j := 0; j < k; j++ {
				vals[j] = f.Hash(t*k+j, v)
			}
			keys[t][i] = packKey(vals, f.Bits())
		}
	}
	return keys
}

func engineCorpus(n int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		if i%17 == 0 {
			data[i] = vecmath.Vector{} // empty vectors exercise sentinels
			continue
		}
		nnz := 1 + rng.Intn(12)
		ds := make([]uint32, nnz)
		for j := range ds {
			// Zipf-ish reuse plus a long tail of rare dimensions.
			if rng.Float64() < 0.7 {
				ds[j] = uint32(rng.Intn(50))
			} else {
				ds[j] = uint32(rng.Intn(5000))
			}
		}
		data[i] = vecmath.FromDims(ds)
	}
	return data
}

// engineBatches returns the batches the equivalence tests sign: the corpus,
// the corpus plus a vector on the top dimension 2³²−1 (whose dense size does
// not fit 32 bits), and that vector alone.
func engineBatches(data []vecmath.Vector) [][]vecmath.Vector {
	top := vecmath.FromDims([]uint32{3, math.MaxUint32})
	mixed := append(append([]vecmath.Vector(nil), data...), top)
	return [][]vecmath.Vector{data, mixed, {top}}
}

// TestEngineMatchesNaive is the mandatory equivalence layer: for every
// family and a sweep of (k, ℓ) covering both narrow (word-keyed) and wide
// (string-keyed) tables, the engine-built index must assign every vector the
// same canonical bucket key as the naive Family.Hash + packKey path.
func TestEngineMatchesNaive(t *testing.T) {
	families := []Family{NewSimHash(42), NewMinHash(42)}
	type cfg struct{ k, ell int }
	cfgs := []cfg{{1, 1}, {2, 3}, {8, 2}, {20, 1}, {64, 1}, {70, 1}, {3, 2}}
	for _, data := range engineBatches(engineCorpus(200, 11)) {
		for _, f := range families {
			for _, c := range cfgs {
				if c.k*f.Bits() > 64 && c.k > 3 && f.Bits() > 1 {
					continue // MinHash wide already covered by k=3
				}
				idx, err := Build(data, f, c.k, c.ell)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveKeys(data, f, c.k, c.ell)
				for tb := 0; tb < c.ell; tb++ {
					tab := idx.Snapshot().Table(tb)
					if wantNarrow := c.k*f.Bits() <= 64; tab.Narrow() != wantNarrow {
						t.Fatalf("%s k=%d: Narrow()=%v, want %v", f.Name(), c.k, tab.Narrow(), wantNarrow)
					}
					for i := range data {
						if got := tab.KeyOf(i); got != want[tb][i] {
							t.Fatalf("%s k=%d ℓ=%d: table %d vector %d: engine key %q != naive key %q",
								f.Name(), c.k, c.ell, tb, i, got, want[tb][i])
						}
					}
				}
			}
		}
	}
}

// TestBuildDeterministic asserts Build output is invariant across repeated
// runs and across GOMAXPROCS settings — the engine's parallel signing must
// not leak scheduling into bucket assignment or bucket order.
func TestBuildDeterministic(t *testing.T) {
	data := engineCorpus(300, 5)
	build := func() *Index {
		idx, err := Build(data, NewSimHash(9), 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	ref := build()
	check := func(idx *Index, label string) {
		t.Helper()
		for tb := 0; tb < ref.L(); tb++ {
			rt, it := ref.Snapshot().Table(tb), idx.Snapshot().Table(tb)
			if rt.NH() != it.NH() || rt.NumBuckets() != it.NumBuckets() {
				t.Fatalf("%s: table %d shape differs (NH %d vs %d, buckets %d vs %d)",
					label, tb, rt.NH(), it.NH(), rt.NumBuckets(), it.NumBuckets())
			}
			for i := range data {
				if rt.KeyOf(i) != it.KeyOf(i) {
					t.Fatalf("%s: table %d vector %d key differs", label, tb, i)
				}
			}
			rs, is := rt.BucketSizes(), it.BucketSizes()
			for b := range rs {
				if rs[b] != is[b] {
					t.Fatalf("%s: table %d bucket order differs at %d", label, tb, b)
				}
			}
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		check(build(), "GOMAXPROCS="+string(rune('0'+procs)))
		check(build(), "repeat run")
	}
}

// TestQueryAllocations pins down the epoch-stamped visited array: steady-
// state Query must not allocate a map (or anything besides the result
// slice).
func TestQueryAllocations(t *testing.T) {
	data := engineCorpus(500, 3)
	idx, err := Build(data, NewSimHash(4), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx.Snapshot().Query(data[0]) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		idx.Snapshot().Query(data[7])
	})
	// The returned candidate slice may grow a few times; a per-call map or
	// visited array would add tens of allocations.
	if allocs > 4 {
		t.Fatalf("Query allocates %.1f objects per call; want ≤ 4 (result slice only)", allocs)
	}
}

// TestQueryMatchesSearchSemantics cross-checks the pooled-visited Query
// against a straightforward map-deduplicated reimplementation.
func TestQueryMatchesSearchSemantics(t *testing.T) {
	data := engineCorpus(300, 8)
	idx, err := Build(data, NewMinHash(6), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 50; probe++ {
		v := data[probe*5%len(data)]
		var want []int32
		seen := make(map[int32]bool)
		for tb := 0; tb < idx.L(); tb++ {
			for _, id := range idx.Snapshot().Table(tb).BucketIDs(idx.Snapshot().KeyFor(tb, v)) {
				if !seen[id] {
					seen[id] = true
					want = append(want, id)
				}
			}
		}
		got := idx.Snapshot().Query(v)
		if len(got) != len(want) {
			t.Fatalf("probe %d: Query returned %d ids, want %d", probe, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("probe %d: Query order diverges at %d", probe, i)
			}
		}
	}
}

// TestInsertBatchMatchesNaiveInserts asserts the engine-signed batch path
// lands every vector in the same bucket as repeated single Inserts.
func TestInsertBatchMatchesNaiveInserts(t *testing.T) {
	data := engineCorpus(240, 21)
	for _, f := range []Family{NewSimHash(2), NewMinHash(2)} {
		one, err := Build(data[:80], f, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Build(data[:80], f, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range data[80:] {
			one.Insert(v)
		}
		if first := batch.InsertBatch(data[80:]); first != 80 {
			t.Fatalf("InsertBatch returned first id %d, want 80", first)
		}
		for tb := 0; tb < one.L(); tb++ {
			ot, bt := one.Snapshot().Table(tb), batch.Snapshot().Table(tb)
			if ot.NH() != bt.NH() {
				t.Fatalf("%s table %d: NH %d (single) vs %d (batch)", f.Name(), tb, ot.NH(), bt.NH())
			}
			for i := range data {
				if ot.KeyOf(i) != bt.KeyOf(i) {
					t.Fatalf("%s table %d vector %d: batch key differs from single-insert key", f.Name(), tb, i)
				}
			}
		}
	}
}

// TestEnginePanelMatchesNaive forces panel streaming with a budget far below
// the fused cache size and requires the exact naive keys again — across both
// families, narrow and wide tables, and serial and parallel signing. Panel
// order must not leak into signatures.
func TestEnginePanelMatchesNaive(t *testing.T) {
	families := []Family{NewSimHash(42), NewMinHash(42)}
	type cfg struct{ k, ell int }
	cfgs := []cfg{{2, 3}, {20, 1}, {70, 1}, {3, 2}}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, data := range engineBatches(engineCorpus(200, 13)) {
			for _, f := range families {
				for _, c := range cfgs {
					if c.k*f.Bits() > 64 && c.k > 3 && f.Bits() > 1 {
						continue
					}
					// A few hundred bytes per panel forces hundreds of panels.
					idx, err := BuildSigned(data, f, c.k, c.ell, SignConfig{PanelBytes: 512})
					if err != nil {
						t.Fatal(err)
					}
					want := naiveKeys(data, f, c.k, c.ell)
					for tb := 0; tb < c.ell; tb++ {
						tab := idx.Snapshot().Table(tb)
						for i := range data {
							if got := tab.KeyOf(i); got != want[tb][i] {
								t.Fatalf("procs=%d %s k=%d ℓ=%d: table %d vector %d: panel key %q != naive key %q",
									procs, f.Name(), c.k, c.ell, tb, i, got, want[tb][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFoldSimMatchesNaiveDot pins foldSim's accumulator to SimHash.Hash's
// sum bit for bit, zero signs included, whether it folds a vector in one
// call (the fused pass) or across panels of any size (the panel pass). The
// rows include signed zeros and products that underflow to −0, where an
// accumulator that starts from a product instead of from zero would differ.
func TestFoldSimMatchesNaiveDot(t *testing.T) {
	rng := xrand.New(21)
	const lk = 6
	for rep := 0; rep < 500; rep++ {
		rows := 1 + rng.Intn(14)
		proj := make([]float64, rows*lk)
		for j := range proj {
			switch rng.Intn(4) {
			case 0:
				proj[j] = math.Copysign(0, rng.Norm())
			case 1:
				proj[j] = rng.Norm() * 1e-300
			default:
				proj[j] = rng.Norm()
			}
		}
		var ri []int32
		var es []vecmath.Entry
		for r := 0; r < rows; r++ {
			if rng.Intn(2) == 0 {
				continue
			}
			w := float32(rng.Norm())
			if rng.Intn(3) == 0 {
				w *= 1e-30
			}
			ri = append(ri, int32(r))
			es = append(es, vecmath.Entry{Dim: uint32(r), Weight: w})
		}
		want := make([]float64, lk)
		for m, r := range ri {
			for j := range want {
				want[j] += float64(es[m].Weight) * proj[int(r)*lk+j]
			}
		}
		fused := make([]float64, lk)
		if c := foldSim(fused, proj, es, ri, 0, int32(rows), 0); c != len(ri) {
			t.Fatalf("fused fold stopped at entry %d of %d", c, len(ri))
		}
		panel := 1 + rng.Intn(rows)
		streamed := make([]float64, lk)
		c := 0
		for r0 := 0; r0 < rows; r0 += panel {
			r1 := min(r0+panel, rows)
			c = foldSim(streamed, proj[r0*lk:r1*lk], es, ri, c, int32(r1), r0)
		}
		if c != len(ri) {
			t.Fatalf("panel fold stopped at entry %d of %d", c, len(ri))
		}
		for j := range want {
			w := math.Float64bits(want[j])
			if f, s := math.Float64bits(fused[j]), math.Float64bits(streamed[j]); f != w || s != w {
				t.Fatalf("rep %d lane %d: fused %x, panel %x, naive %x", rep, j, f, s, w)
			}
		}
	}
}
