package lsh

import (
	"fmt"
	"slices"

	"lshjoin/internal/vecmath"
)

// Index restoration for the durability layer (internal/lsh/persist). A
// persisted snapshot carries only the bucket sequences — per table, each
// bucket's canonical key and member ids in the deterministic first-appearance
// order — because everything else the Table keeps is derivable: the
// per-vector keys from bucket membership, and the rest from those keys.
// Restore fills the key column the sequence implies and builds the table
// from it with the same builder Build uses (build.go), so the bucket lookup
// and the Fenwick weight tree come out exactly as a build lays them out.
// Rebuilding the tree bottom-up is draw-for-draw sampling-equivalent to the
// original: find's descent depends only on bucket order and sizes, and both
// the incremental grow path and the bottom-up build produce the same
// minimal power-of-two span, so a reopened table consumes the RNG stream
// identically.

// RestoredBucket is one decoded bucket: the canonical string key (8 bytes in
// narrow mode, 8·k bytes wide) and the ascending member ids.
type RestoredBucket struct {
	Key string
	IDs []int32
}

// RestoreIndex rebuilds a writable Index from persisted snapshot state. It
// validates everything a corrupted or adversarial file could get wrong —
// key widths, bucket order, id range, and that each table's buckets
// partition [0, len(data)) exactly — returning an error instead of ever
// panicking, so the decoder can be fuzzed end to end.
func RestoreIndex(family Family, k, ell int, version uint64, data []vecmath.Vector, tables [][]RestoredBucket) (*Index, error) {
	if err := validateParams(family, k, ell); err != nil {
		return nil, err
	}
	if version < 1 {
		return nil, fmt.Errorf("lsh: restore: version %d < 1", version)
	}
	if len(tables) != ell {
		return nil, fmt.Errorf("lsh: restore: %d table sequences for ℓ=%d", len(tables), ell)
	}
	tabs := make([]*Table, ell)
	for t := range tabs {
		var err error
		if isNarrow(k, family.Bits()) {
			tabs[t], err = restoreTable[uint64](tables[t], k, t*k, family.Bits(), len(data))
		} else {
			tabs[t], err = restoreTable[string](tables[t], k, t*k, family.Bits(), len(data))
		}
		if err != nil {
			return nil, fmt.Errorf("lsh: restore table %d: %w", t, err)
		}
	}
	return newIndex(family, k, ell, version, data, tabs), nil
}

// restoreTable rebuilds one table from its bucket sequence. It checks that
// every key has the mode's width and that the ids cover [0, n) exactly
// once, fills the key column the sequence implies, builds the table from
// it, and requires the build to reproduce the sequence bucket for bucket.
// That holds exactly when the sequence is canonical: distinct keys, buckets
// in first-appearance order (ascending first member id) and ids ascending
// within each bucket.
func restoreTable[K key](seq []RestoredBucket, k, fnBase, bits, n int) (*Table, error) {
	width := 8
	if !isWord[K]() {
		width = 8 * k
	}
	keys := make([]K, n)
	seen := make([]bool, n)
	assigned := 0
	for gi, rb := range seq {
		if len(rb.Key) != width {
			return nil, fmt.Errorf("bucket %d key has %d bytes (want %d)", gi, len(rb.Key), width)
		}
		key := parseKey[K](rb.Key)
		for _, id := range rb.IDs {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("bucket %d id %d outside [0, %d)", gi, id, n)
			}
			if seen[id] {
				return nil, fmt.Errorf("id %d in more than one bucket", id)
			}
			seen[id] = true
			keys[id] = key
		}
		assigned += len(rb.IDs)
	}
	if assigned != n {
		return nil, fmt.Errorf("buckets cover %d of %d ids", assigned, n)
	}
	t := buildTable(keys, k, fnBase, bits)
	if t.NumBuckets() != len(seq) {
		return nil, fmt.Errorf("%d buckets where the canonical form has %d", len(seq), t.NumBuckets())
	}
	var err error
	t.w.walk(func(gi int, b *bucket) bool {
		if !slices.Equal(b.ids, seq[gi].IDs) {
			err = fmt.Errorf("bucket %d is not in canonical form", gi)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
