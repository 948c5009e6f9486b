package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// On-disk snapshot format. A snapshot file is the magic string followed by
// a sequence of checksummed sections:
//
//	8 bytes  magic "LSHSNAP1"
//	repeat:
//	    uint32  section type
//	    uint64  payload length
//	    payload
//	    uint32  CRC32-C over (type, length, payload)
//
// in the fixed order meta, data, one table section per table, end. The end
// section (empty payload) doubles as an explicit EOF marker, so a file
// truncated at any byte — even exactly at a section boundary — fails
// decoding. Sections are checksummed individually to localize corruption;
// every decode failure, including trailing garbage after the end section,
// reports ErrCorrupt.
//
// The meta section carries the family spec (name, seed, bit width), k, ℓ,
// the snapshot version and the vector count. The data section carries the
// vectors in vecio's encoding (uvarint nnz, delta-coded dims, float32
// weights). A table section carries the bucket sequence in deterministic
// first-appearance order: per bucket, the packed key (8 bytes narrow,
// 8·k wide) and the member ids delta-coded ascending. That sequence is the
// whole table — per-vector keys, the bucket lookup and the Fenwick weight
// tree are rebuilt on load by the table builder, and lsh.RestoreIndex refuses
// any sequence that build does not reproduce (see restore.go; persist_test.go
// checks SamplePair draw-for-draw).

const (
	snapMagic     = "LSHSNAP1"
	manifestMagic = "LSHMAN1\n"
	groupMagic    = "LSHGRP1\n"
	crossMagic    = "LSHXJN1\n"
	walMagic      = "LSHWAL1\n"

	secMeta  = uint32(1)
	secData  = uint32(2)
	secTable = uint32(3)
	secEnd   = uint32(0x444E45) // "END"

	formatVersion = 1

	// Decode limits: corrupted lengths must not drive huge allocations.
	maxNameLen = 64
	maxEll     = 1 << 12
	maxK       = 1 << 16
	maxN       = 1<<31 - 1
	maxNNZ     = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// appendSection frames payload as one checksummed section.
func appendSection(buf []byte, typ uint32, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// cursor is a bounds-checked reader over a decoded byte slice. Every read
// failure is an ErrCorrupt.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) rem() int { return len(c.data) - c.off }

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.rem() < n {
		return nil, corrupt("persist: truncated at offset %d", c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, corrupt("persist: bad uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// section reads the next section, verifying its checksum, and returns its
// type and payload.
func (c *cursor) section() (uint32, []byte, error) {
	start := c.off
	typ, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	plen, err := c.u64()
	if err != nil {
		return 0, nil, err
	}
	if plen > uint64(c.rem()) {
		return 0, nil, corrupt("persist: section length %d exceeds file", plen)
	}
	payload, err := c.bytes(int(plen))
	if err != nil {
		return 0, nil, err
	}
	sum := crc32.Checksum(c.data[start:c.off], crcTable)
	want, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if sum != want {
		return 0, nil, corrupt("persist: section type %d checksum mismatch", typ)
	}
	return typ, payload, nil
}

// snapMeta is the decoded meta section.
type snapMeta struct {
	spec    lsh.FamilySpec
	k, ell  int
	version uint64
	n       int
}

// appendVector serializes one vector (uvarint nnz, then per entry a
// delta-coded dim and the float32 weight bits).
func appendVector(buf []byte, v vecmath.Vector) []byte {
	es := v.Entries()
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	prev := uint32(0)
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(e.Dim-prev))
		prev = e.Dim
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(e.Weight))
	}
	return buf
}

// decodeVector inverts appendVector, validating through vecmath.New so
// corrupt entries (non-finite weights, overflowing dims) are rejected.
func decodeVector(c *cursor) (vecmath.Vector, error) {
	nnz, err := c.uvarint()
	if err != nil {
		return vecmath.Vector{}, err
	}
	if nnz > maxNNZ || nnz > uint64(c.rem()) {
		return vecmath.Vector{}, corrupt("persist: vector nnz %d exceeds limits", nnz)
	}
	es := make([]vecmath.Entry, 0, nnz)
	dim := uint64(0)
	for e := uint64(0); e < nnz; e++ {
		delta, err := c.uvarint()
		if err != nil {
			return vecmath.Vector{}, err
		}
		dim += delta
		if dim > math.MaxUint32 {
			return vecmath.Vector{}, corrupt("persist: vector dim overflows")
		}
		bits, err := c.u32()
		if err != nil {
			return vecmath.Vector{}, err
		}
		es = append(es, vecmath.Entry{Dim: uint32(dim), Weight: math.Float32frombits(bits)})
	}
	v, err := vecmath.New(es)
	if err != nil {
		return vecmath.Vector{}, corrupt("persist: bad vector: %v", err)
	}
	return v, nil
}

// encodeSnapshot serializes a published snapshot.
func encodeSnapshot(s *lsh.Snapshot) ([]byte, error) {
	spec, err := lsh.SpecOf(s.Family())
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if s.N() > maxN {
		return nil, fmt.Errorf("persist: %d vectors exceed format limit", s.N())
	}
	buf := []byte(snapMagic)

	var meta []byte
	meta = binary.AppendUvarint(meta, formatVersion)
	meta = binary.AppendUvarint(meta, uint64(len(spec.Name)))
	meta = append(meta, spec.Name...)
	meta = binary.LittleEndian.AppendUint64(meta, spec.Seed)
	meta = binary.AppendUvarint(meta, uint64(spec.Bits))
	meta = binary.AppendUvarint(meta, uint64(s.K()))
	meta = binary.AppendUvarint(meta, uint64(s.L()))
	meta = binary.LittleEndian.AppendUint64(meta, s.Version())
	meta = binary.AppendUvarint(meta, uint64(s.N()))
	buf = appendSection(buf, secMeta, meta)

	var data []byte
	for _, v := range s.Data() {
		data = appendVector(data, v)
	}
	buf = appendSection(buf, secData, data)

	for t := 0; t < s.L(); t++ {
		tab := s.Table(t)
		var sec []byte
		sec = binary.AppendUvarint(sec, uint64(tab.NumBuckets()))
		tab.ForEachBucket(func(key string, ids []int32) bool {
			sec = append(sec, key...)
			sec = binary.AppendUvarint(sec, uint64(len(ids)))
			prev := int32(-1)
			for _, id := range ids {
				sec = binary.AppendUvarint(sec, uint64(id-prev))
				prev = id
			}
			return true
		})
		buf = appendSection(buf, secTable, sec)
	}
	return appendSection(buf, secEnd, nil), nil
}

// decodeMeta parses the meta section payload.
func decodeMeta(payload []byte) (snapMeta, error) {
	c := &cursor{data: payload}
	var m snapMeta
	fv, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if fv != formatVersion {
		return m, corrupt("persist: unsupported format version %d", fv)
	}
	nameLen, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if nameLen > maxNameLen {
		return m, corrupt("persist: family name length %d", nameLen)
	}
	name, err := c.bytes(int(nameLen))
	if err != nil {
		return m, err
	}
	m.spec.Name = string(name)
	if m.spec.Seed, err = c.u64(); err != nil {
		return m, err
	}
	bits, err := c.uvarint()
	if err != nil {
		return m, err
	}
	m.spec.Bits = int(bits)
	k, err := c.uvarint()
	if err != nil {
		return m, err
	}
	ell, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if k < 1 || k > maxK || ell < 1 || ell > maxEll {
		return m, corrupt("persist: parameters k=%d ℓ=%d out of range", k, ell)
	}
	m.k, m.ell = int(k), int(ell)
	if m.version, err = c.u64(); err != nil {
		return m, err
	}
	n, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if n > maxN {
		return m, corrupt("persist: vector count %d out of range", n)
	}
	m.n = int(n)
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in meta section", c.rem())
	}
	return m, nil
}

// decodeTable parses one table section payload into the bucket sequence.
func decodeTable(payload []byte, keyLen, n int) ([]lsh.RestoredBucket, error) {
	c := &cursor{data: payload}
	count, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Each bucket occupies at least keyLen+2 bytes, and non-empty buckets
	// cannot outnumber vectors.
	if count > uint64(n) || count > uint64(len(payload)/(keyLen+2)+1) {
		return nil, corrupt("persist: bucket count %d out of range", count)
	}
	seq := make([]lsh.RestoredBucket, 0, count)
	for b := uint64(0); b < count; b++ {
		key, err := c.bytes(keyLen)
		if err != nil {
			return nil, err
		}
		sz, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if sz > uint64(n) || sz > uint64(c.rem()+1) {
			return nil, corrupt("persist: bucket size %d out of range", sz)
		}
		ids := make([]int32, 0, sz)
		prev := int64(-1)
		for i := uint64(0); i < sz; i++ {
			delta, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if delta == 0 || delta > uint64(n) {
				return nil, corrupt("persist: bucket id delta %d invalid", delta)
			}
			prev += int64(delta)
			if prev >= int64(n) {
				return nil, corrupt("persist: bucket id %d out of range", prev)
			}
			ids = append(ids, int32(prev))
		}
		seq = append(seq, lsh.RestoredBucket{Key: string(key), IDs: ids})
	}
	if c.rem() != 0 {
		return nil, corrupt("persist: %d trailing bytes in table section", c.rem())
	}
	return seq, nil
}

// decodeSnapshot parses a snapshot file and rebuilds the writable index at
// that version. It never panics on arbitrary input (FuzzSnapshotDecode).
func decodeSnapshot(data []byte) (*lsh.Index, error) {
	c := &cursor{data: data}
	magic, err := c.bytes(len(snapMagic))
	if err != nil || string(magic) != snapMagic {
		return nil, corrupt("persist: bad snapshot magic")
	}
	typ, payload, err := c.section()
	if err != nil {
		return nil, err
	}
	if typ != secMeta {
		return nil, corrupt("persist: first section type %d, want meta", typ)
	}
	meta, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}
	family, err := lsh.FamilyFromSpec(meta.spec)
	if err != nil {
		return nil, corrupt("persist: %v", err)
	}

	typ, payload, err = c.section()
	if err != nil {
		return nil, err
	}
	if typ != secData {
		return nil, corrupt("persist: second section type %d, want data", typ)
	}
	dc := &cursor{data: payload}
	if meta.n > len(payload) {
		return nil, corrupt("persist: %d vectors in %d-byte data section", meta.n, len(payload))
	}
	vectors := make([]vecmath.Vector, 0, meta.n)
	for i := 0; i < meta.n; i++ {
		v, err := decodeVector(dc)
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, v)
	}
	if dc.rem() != 0 {
		return nil, corrupt("persist: %d trailing bytes in data section", dc.rem())
	}

	keyLen := 8
	if meta.k*meta.spec.Bits > 64 {
		keyLen = 8 * meta.k
	}
	tables := make([][]lsh.RestoredBucket, meta.ell)
	for t := 0; t < meta.ell; t++ {
		typ, payload, err = c.section()
		if err != nil {
			return nil, err
		}
		if typ != secTable {
			return nil, corrupt("persist: section type %d, want table", typ)
		}
		if tables[t], err = decodeTable(payload, keyLen, meta.n); err != nil {
			return nil, err
		}
	}

	typ, payload, err = c.section()
	if err != nil {
		return nil, err
	}
	if typ != secEnd || len(payload) != 0 {
		return nil, corrupt("persist: missing end section")
	}
	if c.rem() != 0 {
		return nil, corrupt("persist: %d bytes after end section", c.rem())
	}

	idx, err := lsh.RestoreIndex(family, meta.k, meta.ell, meta.version, vectors, tables)
	if err != nil {
		return nil, corrupt("persist: %v", err)
	}
	return idx, nil
}

// encodeManifest frames the durable snapshot version.
func encodeManifest(version uint64) []byte {
	buf := []byte(manifestMagic)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeManifest inverts encodeManifest.
func decodeManifest(data []byte) (uint64, error) {
	if len(data) != len(manifestMagic)+12 || string(data[:len(manifestMagic)]) != manifestMagic {
		return 0, corrupt("persist: bad manifest")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, corrupt("persist: manifest checksum mismatch")
	}
	v := binary.LittleEndian.Uint64(data[len(manifestMagic):])
	if v < 1 {
		return 0, corrupt("persist: manifest version 0")
	}
	return v, nil
}

// GroupMeta is the sharded store's group manifest: the shared hashing
// parameters plus the per-shard snapshot versions at the last group write
// (informational — each shard's own manifest is authoritative for
// recovery).
type GroupMeta struct {
	Family   lsh.FamilySpec
	K, Ell   int
	Shards   int
	Versions []uint64
}

// encodeGroupManifest frames a GroupMeta.
func encodeGroupManifest(m GroupMeta) []byte {
	buf := []byte(groupMagic)
	buf = binary.AppendUvarint(buf, formatVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Family.Name)))
	buf = append(buf, m.Family.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Family.Seed)
	buf = binary.AppendUvarint(buf, uint64(m.Family.Bits))
	buf = binary.AppendUvarint(buf, uint64(m.K))
	buf = binary.AppendUvarint(buf, uint64(m.Ell))
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	for s := 0; s < m.Shards; s++ {
		v := uint64(0)
		if s < len(m.Versions) {
			v = m.Versions[s]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeGroupManifest inverts encodeGroupManifest.
func decodeGroupManifest(data []byte) (GroupMeta, error) {
	var m GroupMeta
	if len(data) < len(groupMagic)+4 || string(data[:len(groupMagic)]) != groupMagic {
		return m, corrupt("persist: bad group manifest")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return m, corrupt("persist: group manifest checksum mismatch")
	}
	c := &cursor{data: body, off: len(groupMagic)}
	fv, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if fv != formatVersion {
		return m, corrupt("persist: unsupported group format version %d", fv)
	}
	nameLen, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if nameLen > maxNameLen {
		return m, corrupt("persist: family name length %d", nameLen)
	}
	name, err := c.bytes(int(nameLen))
	if err != nil {
		return m, err
	}
	m.Family.Name = string(name)
	if m.Family.Seed, err = c.u64(); err != nil {
		return m, err
	}
	bits, err := c.uvarint()
	if err != nil {
		return m, err
	}
	m.Family.Bits = int(bits)
	k, err := c.uvarint()
	if err != nil {
		return m, err
	}
	ell, err := c.uvarint()
	if err != nil {
		return m, err
	}
	shards, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if k < 1 || k > maxK || ell < 1 || ell > maxEll || shards < 1 || shards > lsh.MaxShards {
		return m, corrupt("persist: group parameters out of range")
	}
	m.K, m.Ell, m.Shards = int(k), int(ell), int(shards)
	m.Versions = make([]uint64, m.Shards)
	for s := 0; s < m.Shards; s++ {
		if m.Versions[s], err = c.u64(); err != nil {
			return m, err
		}
	}
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in group manifest", c.rem())
	}
	return m, nil
}

// CrossMeta is the two-sided (cross-join) store's CROSS manifest: the
// hashing parameters shared by both sides plus the per-shard snapshot
// version vector of each side at the last cross write (informational —
// each side's group store is authoritative for recovery). Cross joins
// stratify by a single bipartite matching, so ℓ is always 1.
type CrossMeta struct {
	Family lsh.FamilySpec
	K      int
	Shards int // per side
	LeftVersions,
	RightVersions []uint64
}

// encodeCrossManifest frames a CrossMeta.
func encodeCrossManifest(m CrossMeta) []byte {
	buf := []byte(crossMagic)
	buf = binary.AppendUvarint(buf, formatVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Family.Name)))
	buf = append(buf, m.Family.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Family.Seed)
	buf = binary.AppendUvarint(buf, uint64(m.Family.Bits))
	buf = binary.AppendUvarint(buf, uint64(m.K))
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	for _, side := range [][]uint64{m.LeftVersions, m.RightVersions} {
		for s := 0; s < m.Shards; s++ {
			v := uint64(0)
			if s < len(side) {
				v = side[s]
			}
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeCrossManifest inverts encodeCrossManifest.
func decodeCrossManifest(data []byte) (CrossMeta, error) {
	var m CrossMeta
	if len(data) < len(crossMagic)+4 || string(data[:len(crossMagic)]) != crossMagic {
		return m, corrupt("persist: bad cross manifest")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return m, corrupt("persist: cross manifest checksum mismatch")
	}
	c := &cursor{data: body, off: len(crossMagic)}
	fv, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if fv != formatVersion {
		return m, corrupt("persist: unsupported cross format version %d", fv)
	}
	nameLen, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if nameLen > maxNameLen {
		return m, corrupt("persist: family name length %d", nameLen)
	}
	name, err := c.bytes(int(nameLen))
	if err != nil {
		return m, err
	}
	m.Family.Name = string(name)
	if m.Family.Seed, err = c.u64(); err != nil {
		return m, err
	}
	bits, err := c.uvarint()
	if err != nil {
		return m, err
	}
	m.Family.Bits = int(bits)
	k, err := c.uvarint()
	if err != nil {
		return m, err
	}
	shards, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if k < 1 || k > maxK || shards < 1 || shards > lsh.MaxShards {
		return m, corrupt("persist: cross parameters out of range")
	}
	m.K, m.Shards = int(k), int(shards)
	m.LeftVersions = make([]uint64, m.Shards)
	m.RightVersions = make([]uint64, m.Shards)
	for _, side := range [][]uint64{m.LeftVersions, m.RightVersions} {
		for s := 0; s < m.Shards; s++ {
			if side[s], err = c.u64(); err != nil {
				return m, err
			}
		}
	}
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in cross manifest", c.rem())
	}
	return m, nil
}
