package lsh

import (
	"encoding/binary"
	"testing"

	"lshjoin/internal/vecmath"
)

// FuzzTableMergePublish feeds arbitrary delta key streams through the
// incremental merge path — base build, then publish-sized delta chunks
// merged one at a time — in both narrow (uint64) and wide (string) key
// modes, and keeps every version it publishes. After the last merge each
// version must still be indistinguishable from a from-scratch rebuild over
// its own key prefix and must find no bucket for a key first seen after it,
// although later merges filled slots of the bucket lookup it shares.
//
// Byte layout: data[0] picks the chunking rhythm; every following byte is
// one key, folded into a small alphabet so buckets genuinely collide. The
// lookup of a base chunk (at most 13 keys) has at most 32 slots and regrows
// past 16 buckets, so inputs with more distinct keys cross a regrow.
func FuzzTableMergePublish(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 1, 2, 3, 9, 9, 1})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{7, 255, 254, 253, 1, 1, 1, 2, 2, 40, 41, 42, 43})
	f.Add([]byte{0})
	f.Add([]byte{12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 3, 7})
	f.Add([]byte{0, 5, 5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		chunk := int(data[0]%13) + 1
		raw := data[1:]
		if len(raw) > 256 {
			raw = raw[:256] // the per-version checks are quadratic in the input
		}
		keys := make([]uint64, len(raw))
		for i, b := range raw {
			keys[i] = uint64(b % 37) // collision-rich alphabet
		}
		checkMergePublish(t, keys, chunk, 8)

		// Wide mode: same stream as 70-bit packed string keys.
		skeys := make([]string, len(keys))
		vals := make([]uint64, 70)
		for i, w := range keys {
			vals[0], vals[69] = w%7, w/7
			skeys[i] = packKey(vals, 1)
		}
		checkMergePublish(t, skeys, chunk, 70)
	})
}

// checkMergePublish builds a table over the first chunk of keys, merges the
// rest one chunk per version — the exact per-insert publication path when
// chunk == 1 — and checks every version against a rebuild over its own key
// prefix, against every key first seen after it, and against the lookup's
// load bound.
func checkMergePublish[K key](t *testing.T, keys []K, chunk, k int) {
	t.Helper()
	base := keys[:min(chunk, len(keys))]
	versions := []*Table{buildTable(append([]K(nil), base...), k, 0, 1)}
	for lo := len(base); lo < len(keys); lo += chunk {
		hi := min(lo+chunk, len(keys))
		versions = append(versions, merge(versions[len(versions)-1], keys[lo:hi]))
	}
	for _, v := range versions {
		n := v.N()
		tablesEqual(t, buildTable(append([]K(nil), keys[:n]...), k, 0, 1), v)
		held := make(map[K]bool, n)
		for _, key := range keys[:n] {
			held[key] = true
		}
		for _, key := range keys[n:] {
			if !held[key] && v.BucketIDs(canonicalKey(key)) != nil {
				t.Fatalf("version of %d keys finds a bucket for key %v, first seen after it", n, key)
			}
		}
		if x := keysOf[K](v); 2*len(x.first) > len(x.slots) {
			t.Fatalf("version of %d keys: %d buckets in %d lookup slots", n, len(x.first), len(x.slots))
		}
	}
}

// canonicalKey renders a key of either width in the canonical string form
// Table.BucketIDs takes.
func canonicalKey[K key](k K) string {
	if w, ok := any(k).(uint64); ok {
		return key64String(w)
	}
	return any(k).(string)
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
						if got := idx.Snapshot().Table(tb).KeyOf(i); got != want[tb][i] {
							t.Fatalf("%s k=%d ℓ=%d panel=%d: table %d vector %d: engine key %q != naive key %q",
								fam.Name(), k, ell, cfg.PanelBytes, tb, i, got, want[tb][i])
						}
					}
				}
			}
		}
	})
}
