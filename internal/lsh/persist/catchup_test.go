package persist

import (
	"bytes"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// FuzzCatchUpMatchesRestore proves the coordinator's catch-up path builds
// exactly what a full fetch builds. A source index grows through batches
// published at arbitrary boundaries; a replica restores the source's
// encoding at one published version (the cut) and applies the rest with
// lsh.Index.CatchUp, stamped with the final version. The replica must equal
// the restored final encoding — version, vectors, buckets, N_H and the
// SamplePair stream draw for draw — and encode to the same bytes, in every
// key-width × family configuration.
//
// Byte layout: data[0] picks the cut among the published versions (the
// empty first version included); every following byte is one vector over a
// small dimension alphabet, with its top bit marking a publish after it.
func FuzzCatchUpMatchesRestore(f *testing.F) {
	f.Add([]byte{1, 0x81, 2, 3, 0x84, 5, 5, 0x86, 7, 1, 2})
	f.Add([]byte{0, 1, 1, 1, 1})
	f.Add([]byte{3, 0x80, 0x80, 0x81, 9, 9, 0x8A, 40, 41, 0xAA, 43, 44})
	f.Add([]byte{2, 17, 33, 0x91, 17, 49, 0xB1, 17, 65, 81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		raw := data[1:]
		if len(raw) > 96 {
			raw = raw[:96]
		}
		vecs := make([]vecmath.Vector, len(raw))
		for i, b := range raw {
			vecs[i] = vecmath.FromDims([]uint32{uint32(b & 7), uint32(b>>3&15) + 8})
		}
		for _, cfg := range roundtripConfigs {
			src, err := lsh.NewEmptyIndex(cfg.family, cfg.k, cfg.ell)
			if err != nil {
				t.Fatal(err)
			}
			published := [][]byte{encodeOrFail(t, src.Current())}
			lo := 0
			for i, b := range raw {
				if b&0x80 == 0 && i < len(raw)-1 {
					continue
				}
				src.InsertBatch(vecs[lo : i+1])
				published = append(published, encodeOrFail(t, src.Snapshot()))
				lo = i + 1
			}
			final := published[len(published)-1]
			cut := int(data[0]) % len(published)
			replica, err := decodeSnapshot(published[cut])
			if err != nil {
				t.Fatal(err)
			}
			if n := replica.Current().N(); cut < len(published)-1 {
				if _, err := replica.CatchUp(vecs[n:], src.Current().Version()); err != nil {
					t.Fatalf("%s: CatchUp from %d vectors: %v", cfg.name, n, err)
				}
			}
			want, err := decodeSnapshot(final)
			if err != nil {
				t.Fatal(err)
			}
			snapshotsEqual(t, want.Current(), replica.Current(), uint64(len(raw)))
			if got := encodeOrFail(t, replica.Current()); !bytes.Equal(got, final) {
				t.Fatalf("%s: the caught-up replica encodes differently from the final version", cfg.name)
			}
		}
	})
}

func encodeOrFail(t *testing.T, s *lsh.Snapshot) []byte {
	t.Helper()
	blob, err := encodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
