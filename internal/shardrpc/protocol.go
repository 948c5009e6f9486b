package shardrpc

import (
	"encoding/binary"
	"fmt"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
)

// Protocol messages. A connection starts with a handshake — the client
// sends Hello carrying the protocol magic and version, the server answers
// HelloOK with its hashing identity (family spec, k, ℓ) and current state —
// after which the client issues one request frame at a time and reads one
// response frame per request. Response types are the request type with the
// response bit set; Err, NotModified and SnapshotDelta are shared response
// types. Payload layouts (all integers little endian, uvarint = unsigned
// LEB128):
//
//	Hello         magic "LSHRPC1\n" (8 bytes) | uvarint protoVersion
//	HelloOK       uvarint protoVersion | uvarint len(name) | name |
//	              u64 familySeed | uvarint bits | uvarint k | uvarint ℓ |
//	              u64 version | uvarint n
//	Ingest        vector batch in persist's encoding (uvarint count, then per
//	              vector: uvarint nnz, delta-coded dims, float32 weight bits)
//	IngestOK      uvarint firstID | uvarint count
//	Publish       (empty)
//	PublishOK     u64 version
//	Snapshot      u64 incarnation | u64 haveVersion | uvarint haveN
//	SnapshotOK    u64 incarnation | u64 version | snapshot blob (persist
//	              checkpoint encoding)
//	SnapshotDelta u64 version | uvarint first | vector batch (the vectors
//	              with ids first, first+1, ... in persist's encoding)
//	NotModified   u64 version   (answers Snapshot when version == haveVersion)
//	Stats         (empty)
//	StatsOK       u64 version | uvarint n | uvarint ℓ | ℓ × uvarint N_H
//	Sample        uvarint table | uvarint count | u64 seed
//	SampleOK      u64 version | uvarint count | count × (uvarint i, uvarint j)
//	Err           uvarint code | message text (rest of payload)
//
// A Snapshot request names the base the client holds: the server
// incarnation it came from, its version and its vector count (all zero for
// no base). An incarnation is a random nonzero id each Server draws once,
// so a restarted server never mistakes a base from its previous run for its
// own. Within one incarnation the vectors only ever append, so any base the
// server published is a prefix of its current state, and the server needs
// no record of the versions it published to extend one. It answers
// NotModified when the base names its incarnation and current version;
// SnapshotDelta, the vectors past haveN, when the base names its
// incarnation, an older version and at least one vector; and SnapshotOK,
// the full blob stamped with its incarnation, to every other request.
const (
	protoMagic   = "LSHRPC1\n"
	protoVersion = 2

	// Request types.
	THello    = uint32(1)
	TIngest   = uint32(2)
	TPublish  = uint32(3)
	TSnapshot = uint32(4)
	TStats    = uint32(5)
	TSample   = uint32(6)

	// respBit marks a response; a response answers the request whose type it
	// carries below the bit.
	respBit = uint32(0x40)

	THelloOK    = THello | respBit
	TIngestOK   = TIngest | respBit
	TPublishOK  = TPublish | respBit
	TSnapshotOK = TSnapshot | respBit
	TStatsOK    = TStats | respBit
	TSampleOK   = TSample | respBit

	TSnapshotDelta = uint32(0x7D)
	TNotModified   = uint32(0x7E)
	TErr           = uint32(0x7F)
)

// maxRequestPayload caps a request's payload by type. The server checks the
// cap against the frame header before it allocates the payload, so a header
// naming a huge payload costs nothing: every request but Ingest has a fixed
// layout of a few dozen bytes at most. Unknown types may carry no payload
// (they are answered with Err).
func maxRequestPayload(typ uint32) uint64 {
	switch typ {
	case THello:
		return uint64(len(protoMagic) + binary.MaxVarintLen64)
	case TIngest:
		return MaxPayload
	case TSnapshot:
		return 8 + 8 + binary.MaxVarintLen64
	case TSample:
		return 2*binary.MaxVarintLen64 + 8
	}
	return 0 // Publish, Stats and unknown types
}

// Server error codes carried by Err responses.
const (
	CodeBadRequest  = uint64(1) // malformed or out-of-range request payload
	CodeUnsupported = uint64(2) // protocol magic/version mismatch
	CodeInternal    = uint64(3) // server-side failure applying the request
)

// Decode limits, mirroring persist's: corrupted fields must not drive huge
// allocations or impossible parameters.
const (
	maxNameLen = 64
	maxEll     = 1 << 12
	maxK       = 1 << 16
	maxN       = 1<<31 - 1
)

// Hello is a shard server's identity and current state as reported by the
// handshake.
type Hello struct {
	Family  lsh.FamilySpec
	K, Ell  int
	Version uint64
	N       int
}

// preader is a bounds-checked payload reader; every failure wraps
// ErrProtocol.
type preader struct {
	data []byte
	off  int
}

func pErr(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrProtocol)
}

func (p *preader) rem() int { return len(p.data) - p.off }

func (p *preader) bytes(n int) ([]byte, error) {
	if n < 0 || p.rem() < n {
		return nil, pErr("shardrpc: truncated payload at offset %d", p.off)
	}
	b := p.data[p.off : p.off+n]
	p.off += n
	return b, nil
}

func (p *preader) u64() (uint64, error) {
	b, err := p.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (p *preader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, pErr("shardrpc: bad uvarint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

func (p *preader) rest() []byte {
	b := p.data[p.off:]
	p.off = len(p.data)
	return b
}

func (p *preader) done() error {
	if p.rem() != 0 {
		return pErr("shardrpc: %d trailing payload bytes", p.rem())
	}
	return nil
}

func encodeHelloReq() []byte {
	buf := []byte(protoMagic)
	return binary.AppendUvarint(buf, protoVersion)
}

// decodeHelloReq returns the peer's protocol version. A wrong magic is a
// protocol violation; a wrong version is for the caller to judge (the server
// answers Err/CodeUnsupported so old clients get a readable reason).
func decodeHelloReq(payload []byte) (uint64, error) {
	p := &preader{data: payload}
	magic, err := p.bytes(len(protoMagic))
	if err != nil || string(magic) != protoMagic {
		return 0, pErr("shardrpc: bad protocol magic")
	}
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	return v, p.done()
}

func encodeHelloResp(h Hello) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, protoVersion)
	buf = binary.AppendUvarint(buf, uint64(len(h.Family.Name)))
	buf = append(buf, h.Family.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, h.Family.Seed)
	buf = binary.AppendUvarint(buf, uint64(h.Family.Bits))
	buf = binary.AppendUvarint(buf, uint64(h.K))
	buf = binary.AppendUvarint(buf, uint64(h.Ell))
	buf = binary.LittleEndian.AppendUint64(buf, h.Version)
	buf = binary.AppendUvarint(buf, uint64(h.N))
	return buf
}

func decodeHelloResp(payload []byte) (Hello, error) {
	var h Hello
	p := &preader{data: payload}
	pv, err := p.uvarint()
	if err != nil {
		return h, err
	}
	if pv != protoVersion {
		return h, pErr("shardrpc: server speaks protocol version %d, want %d", pv, protoVersion)
	}
	nameLen, err := p.uvarint()
	if err != nil {
		return h, err
	}
	if nameLen > maxNameLen {
		return h, pErr("shardrpc: family name length %d", nameLen)
	}
	name, err := p.bytes(int(nameLen))
	if err != nil {
		return h, err
	}
	h.Family.Name = string(name)
	if h.Family.Seed, err = p.u64(); err != nil {
		return h, err
	}
	bits, err := p.uvarint()
	if err != nil {
		return h, err
	}
	h.Family.Bits = int(bits)
	k, err := p.uvarint()
	if err != nil {
		return h, err
	}
	ell, err := p.uvarint()
	if err != nil {
		return h, err
	}
	if k < 1 || k > maxK || ell < 1 || ell > maxEll {
		return h, pErr("shardrpc: parameters k=%d ℓ=%d out of range", k, ell)
	}
	h.K, h.Ell = int(k), int(ell)
	if h.Version, err = p.u64(); err != nil {
		return h, err
	}
	n, err := p.uvarint()
	if err != nil {
		return h, err
	}
	if n > maxN {
		return h, pErr("shardrpc: vector count %d out of range", n)
	}
	h.N = int(n)
	return h, p.done()
}

func encodeIngestResp(first, count int) []byte {
	buf := binary.AppendUvarint(nil, uint64(first))
	return binary.AppendUvarint(buf, uint64(count))
}

func decodeIngestResp(payload []byte) (first, count int, err error) {
	p := &preader{data: payload}
	f, err := p.uvarint()
	if err != nil {
		return 0, 0, err
	}
	c, err := p.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if f > maxN || c > maxN {
		return 0, 0, pErr("shardrpc: ingest ids out of range")
	}
	return int(f), int(c), p.done()
}

func encodeVersion(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

func decodeVersion(payload []byte) (uint64, error) {
	p := &preader{data: payload}
	v, err := p.u64()
	if err != nil {
		return 0, err
	}
	return v, p.done()
}

// Base names the state a caller holds of a shard, as an earlier fetch
// returned it: the server incarnation it came from, its version and its
// vector count. The zero Base holds nothing.
type Base struct {
	Incarnation, Version uint64
	N                    int
}

func encodeSnapshotReq(b Base) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, b.Incarnation)
	buf = binary.LittleEndian.AppendUint64(buf, b.Version)
	return binary.AppendUvarint(buf, uint64(b.N))
}

func decodeSnapshotReq(payload []byte) (Base, error) {
	var b Base
	p := &preader{data: payload}
	var err error
	if b.Incarnation, err = p.u64(); err != nil {
		return b, err
	}
	if b.Version, err = p.u64(); err != nil {
		return b, err
	}
	n, err := p.uvarint()
	if err != nil {
		return b, err
	}
	if n > maxN {
		return b, pErr("shardrpc: base vector count %d out of range", n)
	}
	b.N = int(n)
	return b, p.done()
}

func encodeSnapshotResp(incarnation, version uint64, blob []byte) []byte {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 16+len(blob)), incarnation)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	return append(buf, blob...)
}

func decodeSnapshotResp(payload []byte) (incarnation, version uint64, blob []byte, err error) {
	p := &preader{data: payload}
	if incarnation, err = p.u64(); err != nil {
		return 0, 0, nil, err
	}
	if version, err = p.u64(); err != nil {
		return 0, 0, nil, err
	}
	return incarnation, version, p.rest(), nil
}

func encodeDeltaResp(version uint64, first int, vs []vecmath.Vector) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, version)
	buf = binary.AppendUvarint(buf, uint64(first))
	return append(buf, persist.EncodeVectors(vs)...)
}

func decodeDeltaResp(payload []byte) (version uint64, first int, vs []vecmath.Vector, err error) {
	p := &preader{data: payload}
	if version, err = p.u64(); err != nil {
		return 0, 0, nil, err
	}
	f, err := p.uvarint()
	if err != nil {
		return 0, 0, nil, err
	}
	if f > maxN {
		return 0, 0, nil, pErr("shardrpc: delta first id %d out of range", f)
	}
	if vs, err = persist.DecodeVectors(p.rest()); err != nil {
		return 0, 0, nil, pErr("shardrpc: delta vectors: %v", err)
	}
	return version, int(f), vs, nil
}

func encodeStatsResp(version uint64, sum lsh.SnapshotSummary) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, version)
	buf = binary.AppendUvarint(buf, uint64(sum.N))
	buf = binary.AppendUvarint(buf, uint64(len(sum.TableNH)))
	for _, nh := range sum.TableNH {
		buf = binary.AppendUvarint(buf, uint64(nh))
	}
	return buf
}

func decodeStatsResp(payload []byte) (lsh.SnapshotSummary, error) {
	var sum lsh.SnapshotSummary
	p := &preader{data: payload}
	v, err := p.u64()
	if err != nil {
		return sum, err
	}
	sum.Version = v
	n, err := p.uvarint()
	if err != nil {
		return sum, err
	}
	if n > maxN {
		return sum, pErr("shardrpc: vector count %d out of range", n)
	}
	sum.N = int(n)
	ell, err := p.uvarint()
	if err != nil {
		return sum, err
	}
	if ell < 1 || ell > maxEll {
		return sum, pErr("shardrpc: table count %d out of range", ell)
	}
	sum.TableNH = make([]int64, ell)
	for t := range sum.TableNH {
		nh, err := p.uvarint()
		if err != nil {
			return sum, err
		}
		if nh > 1<<62 {
			return sum, pErr("shardrpc: N_H out of range")
		}
		sum.TableNH[t] = int64(nh)
	}
	return sum, p.done()
}

func encodeSampleReq(table, count int, seed uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(table))
	buf = binary.AppendUvarint(buf, uint64(count))
	return binary.LittleEndian.AppendUint64(buf, seed)
}

func decodeSampleReq(payload []byte) (table, count int, seed uint64, err error) {
	p := &preader{data: payload}
	t, err := p.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	c, err := p.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	if t >= maxEll || c > maxN {
		return 0, 0, 0, pErr("shardrpc: sample request out of range")
	}
	if seed, err = p.u64(); err != nil {
		return 0, 0, 0, err
	}
	return int(t), int(c), seed, p.done()
}

func encodeSampleResp(version uint64, pairs [][2]int32) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, version)
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, pr := range pairs {
		buf = binary.AppendUvarint(buf, uint64(pr[0]))
		buf = binary.AppendUvarint(buf, uint64(pr[1]))
	}
	return buf
}

func decodeSampleResp(payload []byte) (uint64, [][2]int32, error) {
	p := &preader{data: payload}
	v, err := p.u64()
	if err != nil {
		return 0, nil, err
	}
	count, err := p.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if count > maxN || count > uint64(p.rem()) {
		return 0, nil, pErr("shardrpc: sample count %d out of range", count)
	}
	pairs := make([][2]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		a, err := p.uvarint()
		if err != nil {
			return 0, nil, err
		}
		b, err := p.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if a > maxN || b > maxN {
			return 0, nil, pErr("shardrpc: sample id out of range")
		}
		pairs = append(pairs, [2]int32{int32(a), int32(b)})
	}
	return v, pairs, p.done()
}

func encodeErrResp(code uint64, msg string) []byte {
	buf := binary.AppendUvarint(nil, code)
	return append(buf, msg...)
}

func decodeErrResp(payload []byte) *ServerError {
	p := &preader{data: payload}
	code, err := p.uvarint()
	if err != nil {
		return &ServerError{Code: 0, Msg: "unreadable error response"}
	}
	return &ServerError{Code: code, Msg: string(p.rest())}
}
