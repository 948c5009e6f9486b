package lsh

import (
	"sync"

	"lshjoin/internal/vecmath"
)

// Snapshot is an immutable view of an LSH index at one published version:
// ℓ frozen tables, the frozen prefix of the vector collection they cover,
// and the family that hashed them. Nothing a Snapshot can see is mutated
// after publication: later versions write only past its lengths — into
// shared backing arrays beyond them, and, atomically, into free slots of
// the bucket lookup for buckets past its bucket count, which it skips (see
// lookup.go). So every method is safe for unsynchronized concurrent use,
// and anything holding a Snapshot — estimators, searches, samplers —
// answers over that version forever, regardless of how many vectors the
// owning Index ingests afterwards.
//
// Snapshots are cheap version objects, not copies: consecutive versions
// share bucket id slices, key arrays, the bucket lookup and the subtrees of
// each table's persistent Fenwick weight index, with merges path-copying
// only what they touch (see dynamic.go and fenwick.go).
type Snapshot struct {
	version uint64
	family  Family
	k, ell  int
	narrow  bool
	data    []vecmath.Vector
	tables  []*Table

	// pool recycles query working state (hash scratch + epoch-stamped
	// visited array) across all versions of the owning index, so candidate
	// retrieval allocates no map per call while staying safe for concurrent
	// callers.
	pool *sync.Pool
}

// Version returns the snapshot's monotonically increasing publish version
// (1 for a freshly built index).
func (s *Snapshot) Version() uint64 { return s.version }

// Family returns the hash family the index was built with.
func (s *Snapshot) Family() Family { return s.family }

// K returns the number of hash functions per table.
func (s *Snapshot) K() int { return s.k }

// L returns the number of tables ℓ.
func (s *Snapshot) L() int { return s.ell }

// N returns the number of vectors in this version.
func (s *Snapshot) N() int { return len(s.data) }

// Data returns the version's vector collection. Callers must not modify it.
func (s *Snapshot) Data() []vecmath.Vector { return s.data }

// Table returns table t (0-based).
func (s *Snapshot) Table(t int) *Table { return s.tables[t] }

// Tables returns all ℓ tables.
func (s *Snapshot) Tables() []*Table { return s.tables }

// hashInto fills vals with the k hash values of v for table t.
func (s *Snapshot) hashInto(t int, v vecmath.Vector, vals []uint64) {
	base := t * s.k
	for j := 0; j < s.k; j++ {
		vals[j] = s.family.Hash(base+j, v)
	}
}

// KeyFor computes the bucket key of an arbitrary (possibly out-of-index)
// vector in table t, in canonical string form, for use by similarity search
// and bipartite joins. The hash scratch comes from the shared query pool,
// so only the returned key string is allocated.
func (s *Snapshot) KeyFor(t int, v vecmath.Vector) string {
	vs := s.getVisit()
	vals := vs.vals[:s.k]
	s.hashInto(t, v, vals)
	key := packKey(vals, s.family.Bits())
	s.pool.Put(vs)
	return key
}

// SameAnyBucket reports whether vectors i and j share a bucket in at least
// one of the ℓ tables — the "virtual bucket" membership test of App. B.2.1.
func (s *Snapshot) SameAnyBucket(i, j int) bool {
	for _, t := range s.tables {
		if t.SameBucket(i, j) {
			return true
		}
	}
	return false
}

// BucketMultiplicity returns the number of tables in which vectors i and j
// share a bucket (0..ℓ).
func (s *Snapshot) BucketMultiplicity(i, j int) int {
	m := 0
	for _, t := range s.tables {
		if t.SameBucket(i, j) {
			m++
		}
	}
	return m
}

// visitState is the reusable query working set: k hash values and an
// epoch-stamped visited array (stamp[id] == epoch marks id as emitted this
// query), replacing a per-call map[int32]struct{}.
type visitState struct {
	vals  []uint64
	stamp []uint32
	epoch uint32
}

// getVisit takes a visitState from the shared pool with the k-word hash
// scratch sized. The O(n) stamp array is only grown by beginEpoch, so
// KeyFor-style borrowers never pay for it.
func (s *Snapshot) getVisit() *visitState {
	vs, _ := s.pool.Get().(*visitState)
	if vs == nil {
		vs = &visitState{}
	}
	if len(vs.vals) < s.k {
		vs.vals = make([]uint64, s.k)
	}
	return vs
}

// beginEpoch sizes the visited array for n vectors and opens a new dedup
// epoch.
func (vs *visitState) beginEpoch(n int) {
	if len(vs.stamp) < n {
		vs.stamp = make([]uint32, n)
		vs.epoch = 0
	}
	vs.epoch++
	if vs.epoch == 0 { // wrapped: stale stamps could collide, reset
		for i := range vs.stamp {
			vs.stamp[i] = 0
		}
		vs.epoch = 1
	}
}

// Query returns the ids of all vectors sharing a bucket with v in any table,
// excluding duplicates — the standard LSH candidate-retrieval operation the
// index exists for. The order is deterministic (first table, bucket order).
func (s *Snapshot) Query(v vecmath.Vector) []int32 {
	vs := s.getVisit()
	vs.beginEpoch(len(s.data))
	vals := vs.vals[:s.k]
	bits := s.family.Bits()
	var out []int32
	for t := 0; t < s.ell; t++ {
		s.hashInto(t, v, vals)
		var ids []int32
		if s.narrow {
			ids = bucketIDs(s.tables[t], packWord(vals, bits))
		} else {
			ids = bucketIDs(s.tables[t], packKey(vals, bits))
		}
		for _, id := range ids {
			if vs.stamp[id] != vs.epoch {
				vs.stamp[id] = vs.epoch
				out = append(out, id)
			}
		}
	}
	s.pool.Put(vs)
	return out
}

// Search returns the ids of indexed vectors u with sim(u, v) ≥ τ among the
// LSH candidates of v — approximate similarity search with the usual LSH
// false-negative caveat.
func (s *Snapshot) Search(v vecmath.Vector, tau float64) []int32 {
	var out []int32
	for _, id := range s.Query(v) {
		if s.family.Sim(s.data[id], v) >= tau {
			out = append(out, id)
		}
	}
	return out
}

// SizeBytes estimates the total space of all tables (see Table.SizeBytes).
func (s *Snapshot) SizeBytes() int64 {
	var sz int64
	for _, t := range s.tables {
		sz += t.SizeBytes()
	}
	return sz
}
