// Package shardrpc is the wire protocol between a shard server — one
// process owning one lsh.Index — and the coordinator that merges per-shard
// state into distributed estimates (the public RemoteCollection).
//
// The protocol is deliberately small: length-prefixed binary frames with the
// same CRC32-C discipline as the persist layer's snapshot sections, carrying
// a handful of request/response messages (see protocol.go). Full snapshot
// responses reuse the checkpoint file encoding verbatim, and ingest and
// snapshot deltas reuse the delta log's vector encoding, so the network
// layer adds no second codec: persist's decode limits and fuzz coverage
// apply to every byte that crosses the wire. A fetched shard rebuilds
// through the same lsh.RestoreIndex path whose draw-for-draw equivalence the
// durability tests prove, and a cached one catches up through
// lsh.Index.CatchUp, which builds the same state (FuzzCatchUpMatchesRestore).
// DESIGN.md documents the byte layouts.
package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// A frame is one protocol message:
//
//	uint32  message type (little endian)
//	uint64  payload length
//	payload
//	uint32  CRC32-C over (type, length, payload)
//
// — the persist section format, framed for a stream: the fixed 12-byte
// header is read first, the length bounds the payload read, and the trailing
// checksum rejects corruption before any payload byte is interpreted.

const (
	frameHeaderLen = 12

	// MaxPayload bounds a frame's payload so a corrupted or hostile length
	// field cannot drive a huge allocation.
	MaxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Typed error classes of the client/server layer. Test with errors.Is.
var (
	// ErrProtocol reports bytes that violate the protocol: a bad checksum,
	// an oversize length, a malformed payload, or a response of the wrong
	// type. Protocol violations are never retried — the peer is speaking the
	// wrong language, not having a bad moment.
	ErrProtocol = errors.New("shardrpc: protocol violation")

	// ErrUnavailable reports a shard that could not be reached or did not
	// answer in time: dial failures, i/o timeouts, and connections closed
	// mid-exchange. Unavailability is transient by definition; the client
	// retries idempotent calls with backoff before surfacing it.
	ErrUnavailable = errors.New("shardrpc: shard unavailable")
)

// ServerError is a shard server's explicit rejection of a request (decoded
// from a TErr response): the request was delivered and understood, and the
// server answered "no". It is never retried.
type ServerError struct {
	Code uint64
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("shardrpc: server error %d: %s", e.Code, e.Msg)
}

// AppendFrame appends the frame encoding of one message to buf.
func AppendFrame(buf []byte, typ uint32, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// WriteFrame writes one framed message to w.
func WriteFrame(w io.Writer, typ uint32, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("shardrpc: %d-byte payload exceeds frame limit", len(payload))
	}
	_, err := w.Write(AppendFrame(nil, typ, payload))
	return err
}

// ReadFrame reads one framed message from r, verifying its checksum. I/O
// failures (including timeouts and peers closing mid-frame) return the
// underlying error; structural violations wrap ErrProtocol. The returned
// payload is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) (typ uint32, payload []byte, err error) {
	return readFrame(r, func(uint32) uint64 { return MaxPayload })
}

// readFrame is ReadFrame with a payload cap per message type, checked
// against the header before the payload is allocated: a frame whose header
// names more than maxPayload(typ) bytes is a protocol violation, and its
// body is never read.
func readFrame(r io.Reader, maxPayload func(typ uint32) uint64) (typ uint32, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = binary.LittleEndian.Uint32(hdr[:4])
	plen := binary.LittleEndian.Uint64(hdr[4:])
	if plen > maxPayload(typ) {
		return 0, nil, fmt.Errorf("shardrpc: frame type %d length %d exceeds its limit: %w", typ, plen, ErrProtocol)
	}
	body := make([]byte, plen+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	payload = body[:plen]
	sum := crc32.Checksum(hdr[:], crcTable)
	sum = crc32.Update(sum, crcTable, payload)
	if want := binary.LittleEndian.Uint32(body[plen:]); sum != want {
		return 0, nil, fmt.Errorf("shardrpc: frame type %d checksum mismatch: %w", typ, ErrProtocol)
	}
	return typ, payload, nil
}
