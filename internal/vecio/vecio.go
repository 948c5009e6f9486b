// Package vecio serializes vector collections in a compact binary format so
// generated datasets can be produced once (cmd/vsjgen) and reused by the
// estimation and benchmark tools.
//
// Format (little-endian, after the 8-byte header "VSJV" + uint32 version):
//
//	uint32  count
//	repeat count times:
//	    uvarint nnz
//	    nnz × (uvarint dim-delta, float32 weight)
//	uint64  FNV-1a checksum of everything after the header
//
// Dimensions are delta-encoded (entries are sorted by construction).
package vecio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"

	"lshjoin/internal/vecmath"
)

const (
	magic   = "VSJV"
	version = uint32(1)
	// maxNNZ bounds a single vector's entry count to keep corrupted inputs
	// from driving huge allocations.
	maxNNZ = 1 << 26
	// maxPrealloc caps how many vectors, or entries of one vector, Read
	// reserves from a header count before reading them: counts come from
	// the input, so larger collections grow by append as their bytes arrive.
	maxPrealloc = 1 << 12
)

// Write streams the collection to w.
func Write(w io.Writer, vectors []vecmath.Vector) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("vecio: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return fmt.Errorf("vecio: write version: %w", err)
	}
	sum := fnv.New64a()
	out := io.MultiWriter(bw, sum)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := out.Write(scratch[:n])
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, uint32(len(vectors))); err != nil {
		return fmt.Errorf("vecio: write count: %w", err)
	}
	for i, v := range vectors {
		es := v.Entries()
		if err := writeUvarint(uint64(len(es))); err != nil {
			return fmt.Errorf("vecio: vector %d: %w", i, err)
		}
		prev := uint32(0)
		for _, e := range es {
			if err := writeUvarint(uint64(e.Dim - prev)); err != nil {
				return fmt.Errorf("vecio: vector %d: %w", i, err)
			}
			prev = e.Dim
			if err := binary.Write(out, binary.LittleEndian, math.Float32bits(e.Weight)); err != nil {
				return fmt.Errorf("vecio: vector %d: %w", i, err)
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum64()); err != nil {
		return fmt.Errorf("vecio: write checksum: %w", err)
	}
	return bw.Flush()
}

// Read parses a collection previously written with Write, verifying the
// checksum.
func Read(r io.Reader) ([]vecmath.Vector, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("vecio: read magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("vecio: bad magic %q", head)
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("vecio: read version: %w", err)
	}
	if ver != version {
		return nil, fmt.Errorf("vecio: unsupported version %d", ver)
	}
	sum := fnv.New64a()
	cr := &checksumReader{r: br, h: sum}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("vecio: read count: %w", err)
	}
	vectors := make([]vecmath.Vector, 0, min(count, maxPrealloc))
	for i := uint32(0); i < count; i++ {
		nnz, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, fmt.Errorf("vecio: vector %d nnz: %w", i, err)
		}
		if nnz > maxNNZ {
			return nil, fmt.Errorf("vecio: vector %d nnz %d exceeds limit", i, nnz)
		}
		es := make([]vecmath.Entry, 0, min(nnz, maxPrealloc))
		dim := uint64(0)
		for e := uint64(0); e < nnz; e++ {
			delta, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("vecio: vector %d entry %d dim: %w", i, e, err)
			}
			if delta > math.MaxUint32-dim {
				return nil, fmt.Errorf("vecio: vector %d entry %d dim overflows uint32", i, e)
			}
			dim += delta
			var bits uint32
			if err := binary.Read(cr, binary.LittleEndian, &bits); err != nil {
				return nil, fmt.Errorf("vecio: vector %d entry %d weight: %w", i, e, err)
			}
			es = append(es, vecmath.Entry{Dim: uint32(dim), Weight: math.Float32frombits(bits)})
		}
		v, err := vecmath.New(es)
		if err != nil {
			return nil, fmt.Errorf("vecio: vector %d: %w", i, err)
		}
		vectors = append(vectors, v)
	}
	want := sum.Sum64()
	var got uint64
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("vecio: read checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("vecio: checksum mismatch: file %x, computed %x", got, want)
	}
	return vectors, nil
}

// checksumReader hashes everything it reads. It also implements io.ByteReader
// for binary.ReadUvarint.
type checksumReader struct {
	r   *bufio.Reader
	h   hash.Hash64
	buf [1]byte
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

func (c *checksumReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.buf[0] = b
	c.h.Write(c.buf[:])
	return b, nil
}

// WriteFile writes the collection to path (atomically via a temp file in the
// same directory).
func WriteFile(path string, vectors []vecmath.Vector) error {
	tmp, err := os.CreateTemp(dirOf(path), ".vsjv-*")
	if err != nil {
		return fmt.Errorf("vecio: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, vectors); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("vecio: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("vecio: rename: %w", err)
	}
	return nil
}

// ReadFile reads a collection from path.
func ReadFile(path string) ([]vecmath.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vecio: open: %w", err)
	}
	defer f.Close()
	return Read(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
