package vecio

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func randVectors(n int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	out := make([]vecmath.Vector, n)
	for i := range out {
		nnz := rng.Intn(20)
		es := make([]vecmath.Entry, 0, nnz)
		for j := 0; j < nnz; j++ {
			es = append(es, vecmath.Entry{
				Dim:    uint32(rng.Intn(100000)),
				Weight: float32(rng.Norm()),
			})
		}
		v, err := vecmath.New(es)
		if err != nil {
			panic(err)
		}
		out[i] = v
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	want := randVectors(200, 1)
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !vecmath.Equal(got[i], want[i]) {
			t.Fatalf("vector %d mismatch:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

func TestRoundTripEmptyAndZeroVectors(t *testing.T) {
	want := []vecmath.Vector{{}, vecmath.FromDims([]uint32{5}), {}}
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0].IsZero() || !got[2].IsZero() || got[1].NNZ() != 1 {
		t.Fatalf("round trip broke zero vectors: %v", got)
	}
}

func TestRoundTripEmptyCollection(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d vectors", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE\x01\x00\x00\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	want := randVectors(10, 2)
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, 9, 15, len(raw) - 3} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	want := randVectors(50, 3)
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a bit in the payload (after the 8-byte header, before checksum).
	raw[len(raw)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted payload accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.vsjv")
	want := randVectors(30, 4)
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !vecmath.Equal(got[i], want[i]) {
			t.Fatalf("vector %d mismatch", i)
		}
	}
	// Atomic write leaves no temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.vsjv")); err == nil {
		t.Error("missing file accepted")
	}
}

// fileHeader returns the magic and version every file starts with.
func fileHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte(magic), version)
}

// rawFile frames payload as a complete file: header, payload and a valid
// FNV-1a trailer, so the reader gets past its checksum to judge the payload.
func rawFile(payload []byte) []byte {
	out := append(fileHeader(), payload...)
	sum := fnv.New64a()
	sum.Write(payload)
	return binary.LittleEndian.AppendUint64(out, sum.Sum64())
}

// allocDuring reports how many heap bytes fn allocates.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A header's counts are input: a file that claims far more vectors, or
// entries, than it holds must fail on the missing bytes without first
// reserving room for the claim.
func TestReadDoesNotTrustHeaderCounts(t *testing.T) {
	cases := map[string][]byte{
		// count = 2^20 vectors, then nothing: 32 MiB of vector headers.
		"count": binary.LittleEndian.AppendUint32(nil, 1<<20),
		// One vector of nnz = 2^20 entries, then nothing: 8 MiB of entries.
		"nnz": binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, 1), 1<<20),
	}
	for name, payload := range cases {
		raw := append(fileHeader(), payload...)
		var err error
		alloc := allocDuring(func() { _, err = Read(bytes.NewReader(raw)) })
		if err == nil {
			t.Errorf("%s: truncated file accepted", name)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: reading a %d-byte file allocated %d bytes", name, len(raw), alloc)
		}
	}
}

// Dimensions add up in 64 bits: a delta that carries the running dimension
// past 2^32−1 is refused, not wrapped onto a small dimension.
func TestReadRefusesDimOverflow(t *testing.T) {
	weight := binary.LittleEndian.AppendUint32(nil, math.Float32bits(1))
	entry := func(b []byte, delta uint64) []byte {
		return append(binary.AppendUvarint(b, delta), weight...)
	}
	one := binary.LittleEndian.AppendUint32(nil, 1)
	cases := map[string][]byte{
		// One delta above the 32-bit range.
		"single": entry(binary.AppendUvarint(one, 1), 1<<32+5),
		// The top dimension, then a step past it.
		"sum": entry(entry(binary.AppendUvarint(one, 2), math.MaxUint32), 2),
		// A delta that would wrap even a 64-bit sum.
		"wrap64": entry(entry(binary.AppendUvarint(one, 2), 5), math.MaxUint64-2),
	}
	for name, payload := range cases {
		if vs, err := Read(bytes.NewReader(rawFile(payload))); err == nil {
			t.Errorf("%s: overflowing delta accepted as %v", name, vs)
		}
	}
	// The top dimension itself is legal.
	top := entry(entry(binary.AppendUvarint(one, 2), 3), math.MaxUint32-3)
	vs, err := Read(bytes.NewReader(rawFile(top)))
	if err != nil {
		t.Fatal(err)
	}
	if es := vs[0].Entries(); len(es) != 2 || es[1].Dim != math.MaxUint32 {
		t.Fatalf("top dimension read as %v", vs[0])
	}
}

// FuzzRead feeds arbitrary bytes to Read. It must never panic, and any input
// it accepts must survive a Write/Read round trip as the same vectors.
func FuzzRead(f *testing.F) {
	for _, vs := range [][]vecmath.Vector{nil, {{}, vecmath.FromDims([]uint32{5, math.MaxUint32})}, randVectors(8, 5)} {
		var buf bytes.Buffer
		if err := Write(&buf, vs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(rawFile(binary.LittleEndian.AppendUint32(nil, 1<<20)))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoding of an accepted input is refused: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-encoding holds %d vectors, want %d", len(again), len(got))
		}
		for i := range got {
			if !vecmath.Equal(again[i], got[i]) {
				t.Fatalf("vector %d re-encodes as %v, want %v", i, again[i], got[i])
			}
		}
	})
}
