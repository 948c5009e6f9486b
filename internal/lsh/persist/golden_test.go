package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// checkpointDigests are the SHA-256 digests of the checkpoint bytes
// TestCheckpointBytesGolden encodes. Checkpoints and the shard RPC's
// snapshot payload share this encoding, so any change to a bucket, its
// key, the bucket order or the vector bytes shows here.
var checkpointDigests = map[string]string{
	"simhash_k20_l1": "e6f0fe78d73ec74015c11880689d47a1db5b314f2fcf3a6188df27e6937d188b",
	"simhash_k70_l2": "7ea3ac8a78a9c279829cf09ff86c2958ed10fd297c0bb0cb530a814f01284a03",
	"minhash_k3_l2":  "b4a09feb47924ac5717029ed706680aed5df0870a248984717052f9f15cbea03",
}

// TestCheckpointBytesGolden pins the checkpoint encoding of three builds,
// narrow and wide: each indexes 5,000 vectors (every 211th one empty), then
// publishes 500 single inserts one at a time, then a batch of 1,000. The
// digest covers the build, every 100th per-insert publish and the final
// batch; a decode of the final checkpoint must re-encode to the same bytes.
// The digests were recorded with the former shard-parallel table build,
// which took over from 4,096 vectors at GOMAXPROCS ≥ 2.
func TestCheckpointBytesGolden(t *testing.T) {
	data := testData(6500, 41)
	for i := range data {
		if i%211 == 0 {
			data[i] = vecmath.Vector{}
		}
	}
	for _, c := range []struct {
		name   string
		family lsh.Family
		k, ell int
	}{
		{"simhash_k20_l1", lsh.NewSimHash(42), 20, 1},
		{"simhash_k70_l2", lsh.NewSimHash(43), 70, 2},
		{"minhash_k3_l2", lsh.NewMinHash(44), 3, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx, err := lsh.Build(data[:5000], c.family, c.k, c.ell)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(encodeOrFail(t, idx.Current()))
			for i := 5000; i < 5500; i++ {
				idx.Insert(data[i])
				s := idx.Snapshot()
				if i%100 == 99 {
					h.Write(encodeOrFail(t, s))
				}
			}
			idx.InsertBatch(data[5500:])
			last := encodeOrFail(t, idx.Snapshot())
			h.Write(last)
			back, err := decodeSnapshot(last)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeOrFail(t, back.Current()), last) {
				t.Error("decoded checkpoint re-encodes to different bytes")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != checkpointDigests[c.name] {
				t.Errorf("checkpoint digest %s, want %s", got, checkpointDigests[c.name])
			}
		})
	}
}
