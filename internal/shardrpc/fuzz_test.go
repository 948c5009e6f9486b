package shardrpc

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// FuzzFrameDecode drives the frame decoder — the first code that touches
// every byte arriving from the network — with arbitrary input: it must
// never panic, must type every structural failure as ErrProtocol (i/o
// truncation excepted), and on success must round-trip. The server's
// capped reader must agree with it on every frame within its request cap
// and reject every other one as ErrProtocol. Decoded payloads are then
// pushed through every request and response decoder, which must be equally
// panic-free on arbitrary bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, THello, encodeHelloReq()))
	f.Add(AppendFrame(nil, THelloOK, encodeHelloResp(Hello{
		Family: lsh.FamilySpec{Name: "simhash", Seed: 7, Bits: 1}, K: 6, Ell: 3, Version: 1,
	})))
	f.Add(AppendFrame(nil, TSnapshotOK, encodeSnapshotResp(9, 3, []byte("blob"))))
	f.Add(AppendFrame(nil, TStatsOK, encodeStatsResp(2, lsh.SnapshotSummary{N: 4, TableNH: []int64{6, 0, 1}})))
	f.Add(AppendFrame(nil, TSampleOK, encodeSampleResp(2, [][2]int32{{0, 3}, {1, 2}})))
	f.Add(AppendFrame(nil, TErr, encodeErrResp(CodeBadRequest, "nope")))
	f.Add([]byte("LSHRPC1\n"))
	corrupt := AppendFrame(nil, TStatsOK, []byte("payload"))
	corrupt[len(corrupt)-2] ^= 0x40
	f.Add(corrupt)
	f.Add(AppendFrame(nil, TSnapshot, encodeSnapshotReq(Base{Incarnation: 9, Version: 3, N: 40})))
	f.Add(AppendFrame(nil, TSnapshotDelta, encodeDeltaResp(4, 40, []vecmath.Vector{vecmath.FromDims([]uint32{1, 5})})))
	overCap := AppendFrame(nil, TStats, nil)
	overCap[4] = 1 // a Stats header naming one payload byte
	f.Add(overCap)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		ctyp, cpayload, cerr := readFrame(bytes.NewReader(data), maxRequestPayload)
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("ReadFrame error is untyped: %v", err)
			}
			if cerr == nil {
				t.Fatalf("capped reader accepted a frame ReadFrame rejects: %v", err)
			}
			return
		}
		switch {
		case uint64(len(payload)) > maxRequestPayload(typ):
			if !errors.Is(cerr, ErrProtocol) {
				t.Fatalf("capped reader on a %d-byte type-%d payload: %v, want ErrProtocol", len(payload), typ, cerr)
			}
		case cerr != nil || ctyp != typ || !bytes.Equal(cpayload, payload):
			t.Fatalf("capped reader disagrees within the cap: type %d vs %d, %v", ctyp, typ, cerr)
		}
		// Round-trip: re-encoding the decoded frame must reproduce the bytes
		// consumed.
		consumed := frameHeaderLen + len(payload) + 4
		if enc := AppendFrame(nil, typ, payload); !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("frame round-trip mismatch for type %d", typ)
		}
		// Every payload decoder must reject garbage gracefully.
		decodeHelloReq(payload)
		decodeHelloResp(payload)
		decodeIngestResp(payload)
		decodeVersion(payload)
		decodeSnapshotReq(payload)
		decodeSnapshotResp(payload)
		decodeDeltaResp(payload)
		decodeStatsResp(payload)
		decodeSampleReq(payload)
		decodeSampleResp(payload)
		decodeErrResp(payload)
	})
}
