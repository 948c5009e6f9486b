package lsh

import (
	"slices"
	"testing"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// restoreSeqs dumps every table of s as the bucket sequences RestoreIndex
// takes, with ids copied so a test can perturb them freely.
func restoreSeqs(s *Snapshot) [][]RestoredBucket {
	out := make([][]RestoredBucket, s.L())
	for t, tab := range s.Tables() {
		tab.ForEachBucket(func(key string, ids []int32) bool {
			out[t] = append(out[t], RestoredBucket{Key: key, IDs: slices.Clone(ids)})
			return true
		})
	}
	return out
}

// cloneSeqs deep-copies bucket sequences.
func cloneSeqs(seqs [][]RestoredBucket) [][]RestoredBucket {
	out := make([][]RestoredBucket, len(seqs))
	for t, seq := range seqs {
		for _, rb := range seq {
			out[t] = append(out[t], RestoredBucket{Key: rb.Key, IDs: slices.Clone(rb.IDs)})
		}
	}
	return out
}

// TestRestoreRefusesNonCanonical pins what RestoreIndex accepts: the bucket
// sequence a build publishes restores to an equal table, SamplePair draws
// included, and every sequence one defect away from it is refused, in both
// key widths.
func TestRestoreRefusesNonCanonical(t *testing.T) {
	data := randData(300, 12, 3, 91)
	for _, c := range []struct {
		name string
		fam  Family
		k    int
	}{{"narrow", NewSimHash(92), 8}, {"wide", NewMinHash(92), 3}} {
		t.Run(c.name, func(t *testing.T) {
			snap, err := BuildSnapshot(data, c.fam, c.k, 2)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Table(0).Narrow() != (c.name == "narrow") {
				t.Fatalf("k=%d built the wrong key width", c.k)
			}
			canon := restoreSeqs(snap)
			n := int32(len(data))
			last := len(canon) - 1 // the defect goes into the last table
			// multi is the first bucket of the last table with at least
			// three members.
			multi := slices.IndexFunc(canon[last], func(rb RestoredBucket) bool { return len(rb.IDs) >= 3 })
			if multi < 0 || len(canon[last]) < 4 {
				t.Fatalf("degenerate bucket structure: %d buckets", len(canon[last]))
			}
			other := (multi + 1) % len(canon[last])

			x, err := RestoreIndex(c.fam, c.k, 2, snap.Version(), data, cloneSeqs(canon))
			if err != nil {
				t.Fatalf("canonical sequence refused: %v", err)
			}
			for ti := 0; ti < 2; ti++ {
				want, got := snap.Table(ti), x.Current().Table(ti)
				tablesEqual(t, want, got)
				r1, r2 := xrand.New(93), xrand.New(93)
				for d := 0; d < 500; d++ {
					i1, j1, ok1 := want.SamplePair(r1)
					i2, j2, ok2 := got.SamplePair(r2)
					if i1 != i2 || j1 != j2 || ok1 != ok2 {
						t.Fatalf("table %d draw %d: (%d,%d,%v) vs (%d,%d,%v)", ti, d, i1, j1, ok1, i2, j2, ok2)
					}
				}
			}

			defects := []struct {
				name  string
				apply func(seq []RestoredBucket) []RestoredBucket
			}{
				{"empty bucket", func(seq []RestoredBucket) []RestoredBucket {
					key := []byte(seq[0].Key)
					key[0] ^= 0xA5 // a key no bucket uses
					return append(seq, RestoredBucket{Key: string(key)})
				}},
				{"id out of range", func(seq []RestoredBucket) []RestoredBucket {
					ids := seq[multi].IDs
					ids[len(ids)-1] = n
					return seq
				}},
				{"id in two buckets", func(seq []RestoredBucket) []RestoredBucket {
					ids := append(seq[other].IDs, seq[multi].IDs[1])
					slices.Sort(ids)
					seq[other].IDs = ids
					return seq
				}},
				{"ids descending", func(seq []RestoredBucket) []RestoredBucket {
					ids := seq[multi].IDs
					ids[1], ids[2] = ids[2], ids[1]
					return seq
				}},
				{"buckets swapped", func(seq []RestoredBucket) []RestoredBucket {
					seq[0], seq[1] = seq[1], seq[0]
					return seq
				}},
				{"bucket split under one key", func(seq []RestoredBucket) []RestoredBucket {
					rb := seq[multi]
					head := RestoredBucket{Key: rb.Key, IDs: rb.IDs[:1]}
					tail := RestoredBucket{Key: rb.Key, IDs: rb.IDs[1:]}
					seq = append(slices.Delete(seq, multi, multi+1), head, tail)
					// Keep first-appearance order so the shared key is the
					// only defect.
					slices.SortFunc(seq, func(a, b RestoredBucket) int { return int(a.IDs[0] - b.IDs[0]) })
					return seq
				}},
				{"key of the wrong width", func(seq []RestoredBucket) []RestoredBucket {
					if len(seq[0].Key) == 8 {
						seq[0].Key += "\x00"
					} else {
						seq[0].Key = seq[0].Key[:8]
					}
					return seq
				}},
				{"id uncovered", func(seq []RestoredBucket) []RestoredBucket {
					ids := seq[multi].IDs
					seq[multi].IDs = ids[:len(ids)-1]
					return seq
				}},
			}
			for _, d := range defects {
				seqs := cloneSeqs(canon)
				seqs[last] = d.apply(seqs[last])
				if _, err := RestoreIndex(c.fam, c.k, 2, snap.Version(), data, seqs); err == nil {
					t.Errorf("%s: accepted", d.name)
				}
			}
			if _, err := RestoreIndex(c.fam, c.k, 2, snap.Version(), data[:n-1], cloneSeqs(canon)); err == nil {
				t.Error("sequence over more ids than vectors accepted")
			}
			if _, err := RestoreIndex(c.fam, c.k, 2, snap.Version(), append(slices.Clone(data), vecmath.Vector{}), cloneSeqs(canon)); err == nil {
				t.Error("sequence leaving the last vector uncovered accepted")
			}
		})
	}
}

// canonicalSeq is the bucket sequence of per-vector keys in canonical
// form, computed independently of the table builder: buckets in
// first-appearance order, ids ascending.
func canonicalSeq(keys []string) []RestoredBucket {
	at := map[string]int{}
	var seq []RestoredBucket
	for i, key := range keys {
		bi, ok := at[key]
		if !ok {
			bi = len(seq)
			at[key] = bi
			seq = append(seq, RestoredBucket{Key: key})
		}
		seq[bi].IDs = append(seq[bi].IDs, int32(i))
	}
	return seq
}

// FuzzRestoreIndex feeds RestoreIndex bucket sequences one perturbation
// away from canonical. RestoreIndex must succeed exactly when the perturbed
// sequence is still the canonical sequence of the per-vector keys it
// implies (its ids covering every vector once), and must then yield the
// table the builder makes from those keys.
//
// Byte layout: data[0] picks the key width (bit 0: narrow SimHash k=8 or
// wide MinHash k=3) and the perturbation (data[0]>>1 mod 6: none, swap two
// buckets, split off a bucket's last id under its key, merge two buckets,
// drop an id, duplicate an id into another bucket); data[1] picks the
// bucket; every following byte is one vector's key, folded into a
// 7-letter alphabet.
func FuzzRestoreIndex(f *testing.F) {
	for op := byte(0); op < 12; op++ {
		f.Add([]byte{op, 1, 3, 1, 3, 3, 0, 1, 6, 2, 2})
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{5, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fam, k := Family(NewSimHash(1)), 8
		if data[0]&1 == 1 {
			fam, k = NewMinHash(1), 3
		}
		narrow := isNarrow(k, fam.Bits())
		width := 8
		if !narrow {
			width = 8 * k
		}
		op, at, raw := data[0]>>1%6, int(data[1]), data[2:]
		n := len(raw)
		keys := make([]string, n)
		for i, b := range raw {
			key := make([]byte, width)
			key[width-1] = b % 7
			keys[i] = string(key)
		}
		canon := canonicalSeq(keys)
		seq := cloneSeqs([][]RestoredBucket{canon})[0]
		if len(seq) > 0 {
			i := at % len(seq)
			j := (i + 1) % len(seq)
			switch op {
			case 1:
				seq[i], seq[j] = seq[j], seq[i]
			case 2:
				if ids := seq[i].IDs; len(ids) > 1 {
					seq[i].IDs = ids[:len(ids)-1]
					seq = slices.Insert(seq, i+1, RestoredBucket{Key: seq[i].Key, IDs: ids[len(ids)-1:]})
				}
			case 3:
				if i != j {
					ids := append(seq[i].IDs, seq[j].IDs...)
					slices.Sort(ids)
					seq[i].IDs = ids
					seq = slices.Delete(seq, j, j+1)
				}
			case 4:
				seq[i].IDs = seq[i].IDs[1:]
			case 5:
				ids := append(seq[j].IDs, seq[i].IDs[0])
				slices.Sort(ids)
				seq[j].IDs = ids
			}
		}

		// The oracle: the keys the sequence implies, if its ids cover
		// [0, n) once, and whether the sequence is their canonical form.
		implied := make([]string, n)
		covered := 0
		for _, rb := range seq {
			for _, id := range rb.IDs {
				if id >= 0 && int(id) < n && implied[id] == "" {
					implied[id] = rb.Key
					covered++
				} else {
					covered = -1 << 30
				}
			}
		}
		valid := covered == n && slices.EqualFunc(canonicalSeq(implied), seq, func(a, b RestoredBucket) bool {
			return a.Key == b.Key && slices.Equal(a.IDs, b.IDs)
		})
		if op == 0 && !valid {
			t.Fatal("oracle refuses the canonical sequence")
		}

		x, err := RestoreIndex(fam, k, 1, 1, make([]vecmath.Vector, n), [][]RestoredBucket{seq})
		if (err == nil) != valid {
			t.Fatalf("op %d: RestoreIndex error %v, canonical %v", op, err, valid)
		}
		if err != nil {
			return
		}
		var want *Table
		if narrow {
			words := make([]uint64, n)
			for i, key := range implied {
				words[i] = parseKey[uint64](key)
			}
			want = buildTable(words, k, 0, fam.Bits())
		} else {
			want = buildTable(implied, k, 0, fam.Bits())
		}
		tablesEqual(t, want, x.Current().Table(0))
	})
}
