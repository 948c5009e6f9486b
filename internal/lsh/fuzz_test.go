package lsh

import (
	"encoding/binary"
	"testing"

	"lshjoin/internal/vecmath"
)

// FuzzTableMergePublish feeds arbitrary delta key streams through the
// incremental merge path — base build, then publish-sized delta chunks
// merged one at a time — and requires the result to be indistinguishable
// from a from-scratch rebuild over the concatenated keys, in both narrow
// (uint64) and wide (string) key modes.
//
// Byte layout: data[0] picks the chunking rhythm; every following byte is
// one key, folded into a small alphabet so buckets genuinely collide and
// overlay compaction triggers on longer inputs.
func FuzzTableMergePublish(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 1, 2, 3, 9, 9, 1})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{7, 255, 254, 253, 1, 1, 1, 2, 2, 40, 41, 42, 43})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		chunk := int(data[0]%13) + 1
		raw := data[1:]
		keys := make([]uint64, len(raw))
		for i, b := range raw {
			keys[i] = uint64(b % 37) // collision-rich alphabet
		}

		// Narrow mode: base is the first chunk, then merge64 one chunk per
		// publish — the exact per-insert publication path when chunk == 1.
		base := keys[:min(chunk, len(keys))]
		inc := buildTable64(append([]uint64(nil), base...), 8, 0, 1, 1)
		for lo := len(base); lo < len(keys); lo += chunk {
			hi := min(lo+chunk, len(keys))
			inc = inc.merge64(keys[lo:hi])
		}
		full := buildTable64(append([]uint64(nil), keys...), 8, 0, 1, 1)
		tablesEqual(t, full, inc)

		// Wide mode: same stream as 70-bit packed string keys via mergeStr.
		skeys := make([]string, len(keys))
		vals := make([]uint64, 70)
		for i, w := range keys {
			vals[0], vals[69] = w%7, w/7
			skeys[i] = packKey(vals, 1)
		}
		sbase := skeys[:min(chunk, len(skeys))]
		sinc := buildTableStr(append([]string(nil), sbase...), 70, 0, 1, 1)
		for lo := len(sbase); lo < len(skeys); lo += chunk {
			hi := min(lo+chunk, len(skeys))
			sinc = sinc.mergeStr(skeys[lo:hi])
		}
		sfull := buildTableStr(append([]string(nil), skeys...), 70, 0, 1, 1)
		tablesEqual(t, sfull, sinc)
	})
}

// FuzzShardedGroupNH feeds arbitrary corpora through the shard layer and
// requires the sharded merge identity to hold exactly: per-shard N_H plus
// cross-shard bipartite N_H must equal the N_H of one index built over the
// union, and the per-pair membership tests must agree pair for pair — in
// both narrow (SimHash) and wide (MinHash) key modes.
//
// Byte layout: data[0] picks the shard count; every following byte is one
// vector over a tiny dimension alphabet, so buckets genuinely collide within
// and across shards.
func FuzzShardedGroupNH(f *testing.F) {
	f.Add([]byte{2, 1, 2, 3, 1, 2, 3, 9, 9, 1})
	f.Add([]byte{5, 0, 0, 0, 0, 7, 7, 7})
	f.Add([]byte{1, 255, 254, 1, 1, 2, 2, 40, 41})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		s := int(data[0]%7) + 1
		raw := data[1:]
		if len(raw) > 64 {
			raw = raw[:64] // keep the O(n²) membership sweep cheap
		}
		vecs := make([]vecmath.Vector, len(raw))
		for i, b := range raw {
			vecs[i] = vecmath.FromDims([]uint32{uint32(b % 8), uint32(b/8%8) + 8})
		}
		for _, fam := range []Family{NewSimHash(3), NewMinHash(3)} {
			k := 4
			if fam.Bits() > 16 {
				k = 3 // MinHash: force the wide string-key mode
			}
			g, err := NewShardGroup(vecs, fam, k, 2, s)
			if err != nil {
				t.Fatal(err)
			}
			gs := g.Capture()
			union, err := BuildSnapshot(gs.Data(), fam, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			for ti := 0; ti < 2; ti++ {
				var sum int64
				for a := 0; a < gs.S(); a++ {
					sum += gs.Snap(a).Table(ti).NH()
					for b := a + 1; b < gs.S(); b++ {
						bp, err := NewBipartite(gs.Snap(a), gs.Snap(b), ti)
						if err != nil {
							t.Fatal(err)
						}
						sum += bp.NH()
					}
				}
				if want := union.Table(ti).NH(); sum != want {
					t.Fatalf("s=%d table %d: sharded N_H %d, union %d", s, ti, sum, want)
				}
				for i := 0; i < gs.N(); i++ {
					for j := i + 1; j < gs.N(); j++ {
						if got, want := gs.SameBucketInTable(ti, i, j), union.Table(ti).SameBucket(i, j); got != want {
							t.Fatalf("s=%d t=%d SameBucket(%d,%d)=%v union %v", s, ti, i, j, got, want)
						}
					}
				}
			}
		}
	})
}

// FuzzCrossGroupNH feeds arbitrary two-sided corpora through the shard layer
// and requires the cross-group bipartite decomposition to hold exactly: the
// S_left·S_right per-shard-pair bipartite N_H must sum to the N_H of one
// bipartite matching over the union sides, and SameBucketAcrossGroups must
// agree pair for pair with the union matching — in both narrow (SimHash) and
// wide (MinHash) key modes. This is the identity the merged general-join
// stratum (core.MergedBipartiteStratum) is built on.
//
// Byte layout: data[0] and data[1] pick the two shard counts; the remaining
// bytes split into the left and right corpora, one vector per byte over a
// tiny dimension alphabet so buckets genuinely collide within and across
// groups.
func FuzzCrossGroupNH(f *testing.F) {
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
		for _, fam := range []Family{NewSimHash(3), NewMinHash(3)} {
			k := 4
			if fam.Bits() > 16 {
				k = 3 // MinHash: force the wide string-key mode
			}
			gl, err := NewShardGroup(lvecs, fam, k, 2, sl)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := NewShardGroup(rvecs, fam, k, 2, sr)
			if err != nil {
				t.Fatal(err)
			}
			lgs, rgs := gl.Capture(), gr.Capture()
			if err := CompatibleCross(lgs, rgs); err != nil {
				t.Fatal(err)
			}
			ul, err := BuildSnapshot(lgs.Data(), fam, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			ur, err := BuildSnapshot(rgs.Data(), fam, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			for ti := 0; ti < 2; ti++ {
				union, err := NewBipartite(ul, ur, ti)
				if err != nil {
					t.Fatal(err)
				}
				var sum int64
				for a := 0; a < lgs.S(); a++ {
					for b := 0; b < rgs.S(); b++ {
						bp, err := NewBipartite(lgs.Snap(a), rgs.Snap(b), ti)
						if err != nil {
							t.Fatal(err)
						}
						sum += bp.NH()
					}
				}
				if sum != union.NH() {
					t.Fatalf("sl=%d sr=%d table %d: per-pair N_H sum %d, union %d", sl, sr, ti, sum, union.NH())
				}
				for i := 0; i < lgs.N(); i++ {
					for j := 0; j < rgs.N(); j++ {
						if got, want := lgs.SameBucketAcrossGroups(ti, i, rgs, j), union.SameBucket(i, j); got != want {
							t.Fatalf("sl=%d sr=%d t=%d SameBucketAcrossGroups(%d,%d)=%v union %v", sl, sr, ti, i, j, got, want)
						}
					}
				}
			}
		}
	})
}

// FuzzEngineMatchesNaive feeds arbitrary batches through the signature
// engine and requires the naive Family.Hash keys of naiveKeys, for SimHash
// and MinHash, fused and panel-streamed, narrow and wide. Arbitrary
// dimensions reach both vocabulary paths (the dense lookup table and the
// map) and the top dimension 2³²−1.
//
// Byte layout: data[0] picks k in [1, 70] and data[1] picks ℓ in [1, 3].
// The rest is a stream of vectors, each a count byte (mod 16) followed by
// that many five-byte entries: a little-endian uint32 dimension and a weight
// byte mapped to [-4, 3]. A truncated vector ends the stream.
func FuzzEngineMatchesNaive(f *testing.F) {
	f.Add([]byte{19, 0, 2, 3, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff, 5})
	f.Add([]byte{7, 1, 1, 9, 0, 0, 0, 2, 0, 2, 3, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff, 7})
	f.Add([]byte{2, 2, 3, 1, 0, 0, 0, 5, 2, 0, 0, 0, 1, 7, 0, 0, 0, 6, 2, 1, 0, 0, 0, 3, 7, 0, 0, 0, 5})
	f.Add([]byte{69, 0, 1, 0, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		k, ell := 1+int(in[0]%70), 1+int(in[1]%3)
		var data []vecmath.Vector
		for rest := in[2:]; len(rest) > 0 && len(data) < 64; {
			n := int(rest[0] % 16)
			rest = rest[1:]
			if len(rest) < 5*n {
				break
			}
			es := make([]vecmath.Entry, n)
			for j := range es {
				es[j] = vecmath.Entry{Dim: binary.LittleEndian.Uint32(rest), Weight: float32(int(rest[4]%8) - 4)}
				rest = rest[5:]
			}
			v, err := vecmath.New(es)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, v)
		}
		if len(data) == 0 {
			return
		}
		for _, fam := range []Family{NewSimHash(42), NewMinHash(42)} {
			want := naiveKeys(data, fam, k, ell)
			for _, cfg := range []SignConfig{{}, {PanelBytes: 64}} {
				idx, err := BuildSigned(data, fam, k, ell, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for tb := 0; tb < ell; tb++ {
					for i := range data {
						if got := idx.Table(tb).KeyOf(i); got != want[tb][i] {
							t.Fatalf("%s k=%d ℓ=%d panel=%d: table %d vector %d: engine key %q != naive key %q",
								fam.Name(), k, ell, cfg.PanelBytes, tb, i, got, want[tb][i])
						}
					}
				}
			}
		}
	})
}
