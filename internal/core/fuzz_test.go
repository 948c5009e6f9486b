package core

import (
	"math"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// FuzzMergedBipartiteNH feeds arbitrary two-sided corpora through the merged
// cross-group stratum and requires it to agree exactly with one bipartite
// matching enumerated over the union sides: same M and N_H, pair-for-pair
// SameBucket membership, and every SamplePair draw bucket-matched in the
// union — in both narrow (SimHash) and wide (MinHash) key modes. This is the
// stratum the sharded general-join estimator samples through.
//
// Byte layout: data[0] and data[1] pick the two shard counts; the remaining
// bytes split into the left and right corpora, one vector per byte over a
// tiny dimension alphabet so buckets genuinely collide across groups.
func FuzzMergedBipartiteNH(f *testing.F) {
	f.Add([]byte{2, 3, 1, 2, 3, 1, 2, 3, 9, 9, 1})
	f.Add([]byte{4, 1, 0, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{1, 1, 255, 254, 1, 1, 2, 2, 40, 41})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		sl := int(data[0]%5) + 1
		sr := int(data[1]%5) + 1
		raw := data[2:]
		if len(raw) > 48 {
			raw = raw[:48] // keep the O(|U|·|V|) membership sweep cheap
		}
		half := len(raw) / 2
		mk := func(bs []byte) []vecmath.Vector {
			vecs := make([]vecmath.Vector, len(bs))
			for i, b := range bs {
				vecs[i] = vecmath.FromDims([]uint32{uint32(b % 8), uint32(b/8%8) + 8})
			}
			return vecs
		}
		lvecs, rvecs := mk(raw[:half]), mk(raw[half:])
		for _, fam := range []lsh.Family{lsh.NewSimHash(3), lsh.NewMinHash(3)} {
			k := 4
			if fam.Bits() > 16 {
				k = 3 // MinHash: force the wide string-key mode
			}
			gl, err := lsh.NewShardGroup(lvecs, fam, k, 1, sl)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := lsh.NewShardGroup(rvecs, fam, k, 1, sr)
			if err != nil {
				t.Fatal(err)
			}
			lgs, rgs := gl.Capture(), gr.Capture()
			ms, err := NewMergedBipartiteStratum(lgs, rgs, 0)
			if err != nil {
				t.Fatal(err)
			}
			ul, err := lsh.BuildSnapshot(lgs.Data(), fam, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			ur, err := lsh.BuildSnapshot(rgs.Data(), fam, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			union, err := lsh.NewBipartite(ul, ur, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ms.M() != union.M() || ms.NH() != union.NH() {
				t.Fatalf("sl=%d sr=%d: merged (M,NH)=(%d,%d), union (%d,%d)",
					sl, sr, ms.M(), ms.NH(), union.M(), union.NH())
			}
			for u := 0; u < lgs.N(); u++ {
				for v := 0; v < rgs.N(); v++ {
					if got, want := ms.SameBucket(u, v), union.SameBucket(u, v); got != want {
						t.Fatalf("sl=%d sr=%d SameBucket(%d,%d)=%v union %v", sl, sr, u, v, got, want)
					}
				}
			}
			if ms.NH() > 0 {
				rng := xrand.New(1)
				for d := 0; d < 32; d++ {
					u, v, ok := ms.SamplePair(rng)
					if !ok {
						t.Fatal("SamplePair failed with NH > 0")
					}
					if !union.SameBucket(u, v) {
						t.Fatalf("sampled pair (%d,%d) not bucket-matched in the union", u, v)
					}
				}
			}
		}
	})
}

// descentOnly hides a table's ForEachPairBucket, so SampleH over it always
// takes the weight-tree descent.
type descentOnly struct{ stratum }

// flatFuzzModes are the family, k and measure FuzzFlatSampleHMatchesDescent
// picks from: narrow and wide keys of each measure (SimHash k·1 bits,
// MinHash k·32 bits against one 64-bit word).
var flatFuzzModes = []struct {
	fam lsh.Family
	k   int
	sim SimFunc
}{
	{lsh.NewSimHash(5), 4, vecmath.Cosine},
	{lsh.NewSimHash(5), 70, vecmath.Cosine},
	{lsh.NewMinHash(5), 1, vecmath.Jaccard},
	{lsh.NewMinHash(5), 3, vecmath.Jaccard},
}

// FuzzFlatSampleHMatchesDescent runs LSH-SS twice over one small decoded
// corpus at m_H ≥ 2·N_H: over the table itself, where SampleH scores
// stratum H flat, and behind descentOnly. The two must agree bit for bit:
// equal Detail (the estimate included) and an equal next output of the RNG
// each consumed.
//
// Byte layout: data[0] picks a flatFuzzModes entry; data[1] sets
// m_H = 2·N_H·(1 + data[1]>>6) + data[1]&63; data[2] sets τ to
// (data[2]%20 + 1)/20; data[3] is the seed. The rest decodes two bytes
// (a, b) per vector: dimension a%8 at weight 1 and dimension a/8%8 + 8 at
// weight b%7 − 3, so buckets collide and weights go negative.
func FuzzFlatSampleHMatchesDescent(f *testing.F) {
	f.Add([]byte{3, 0, 10, 1, 0, 4, 9, 4})                                                       // N_H = 0: disjoint supports
	f.Add([]byte{0, 0, 19, 2, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4})                               // one bucket holds every vector
	f.Add([]byte{3, 0, 5, 3, 0, 4, 0, 4, 9, 4, 9, 4, 18, 4, 18, 4, 27, 4, 27, 4})                // all buckets of size 2
	f.Add([]byte{1, 0, 13, 4, 1, 2, 1, 2, 7, 6, 7, 6, 60, 1, 60, 1, 60, 1, 33, 5, 12, 0, 12, 0}) // m_H = 2·N_H, wide SimHash
	f.Add([]byte{2, 200, 7, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 64, 65, 66, 67})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		mode := flatFuzzModes[int(data[0])%len(flatFuzzModes)]
		raw := data[4:]
		if len(raw) > 96 {
			raw = raw[:96] // at most 48 vectors keeps N_H, and so m_H, small
		}
		var vecs []vecmath.Vector
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := raw[i], raw[i+1]
			v, err := vecmath.New([]vecmath.Entry{
				{Dim: uint32(a % 8), Weight: 1},
				{Dim: uint32(a/8%8) + 8, Weight: float32(int(b%7) - 3)},
			})
			if err != nil {
				t.Fatal(err)
			}
			vecs = append(vecs, v)
		}
		if len(vecs) < 2 {
			return
		}
		snap, err := lsh.BuildSnapshot(vecs, mode.fam, mode.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		nh := snap.Table(0).NH()
		mH := max(int(2*nh*int64(1+data[1]>>6))+int(data[1]&63), 1)
		tau := float64(data[2]%20+1) / 20
		seed := uint64(data[3])
		flat, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), mode.sim, WithSampleSizes(mH, len(vecs)))
		if err != nil {
			t.Fatal(err)
		}
		descent := *flat
		descent.strat = descentOnly{flat.strat}
		if _, ok := flat.flatSource(); !ok {
			t.Fatalf("m_H=%d N_H=%d: the table did not take the flat path", mH, nh)
		}
		if _, ok := descent.flatSource(); ok {
			t.Fatal("descentOnly took the flat path")
		}
		rf, rd := xrand.New(seed), xrand.New(seed)
		df, err := flat.EstimateDetailed(tau, rf)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := descent.EstimateDetailed(tau, rd)
		if err != nil {
			t.Fatal(err)
		}
		if df != dd || math.Float64bits(df.Estimate) != math.Float64bits(dd.Estimate) ||
			math.Float64bits(df.JH) != math.Float64bits(dd.JH) || math.Float64bits(df.JL) != math.Float64bits(dd.JL) {
			t.Fatalf("k=%d m_H=%d N_H=%d τ=%v: flat %+v, descent %+v", mode.k, mH, nh, tau, df, dd)
		}
		if a, b := rf.Uint64(), rd.Uint64(); a != b {
			t.Fatalf("next RNG output: flat %d, descent %d", a, b)
		}
	})
}
