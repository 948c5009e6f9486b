package lsh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lshjoin/internal/vecmath"
)

// Index is an LSH index I_G = {D_g1, ..., D_gℓ}: ℓ tables, each keyed by the
// concatenation of k hash functions from a Family. Table t uses hash
// functions [t·k, (t+1)·k), so tables are mutually independent.
//
// The index separates a mutable write side from immutable read views.
// Insert and InsertBatch only append to a pending delta (hashed vectors and
// their bucket keys); Snapshot merges the delta into a fresh immutable
// Snapshot and publishes it with a single atomic pointer store. Readers
// therefore never observe a half-applied mutation: they either run against
// the version they already hold, or pick up the latest published version,
// lock-free, via Current. All methods are safe for concurrent use; writers
// are serialized by an internal mutex.
//
// The convenience read methods on Index (Query, Search, Table, ...) publish
// any pending delta first, preserving read-your-writes for single-goroutine
// callers. Concurrent readers that want stable, lock-free views should hold
// a *Snapshot instead.
type Index struct {
	mu    sync.Mutex // serializes Insert / InsertBatch / publish
	cur   atomic.Pointer[Snapshot]
	npend atomic.Int64 // vectors in the pending delta

	pendData []vecmath.Vector
	pend     *signatures // pending bucket keys, [table][i]
	scratch  []uint64    // per-writer hash scratch (guarded by mu)
	hook     WriteHook   // durability observer (guarded by mu); nil when not persisted
}

// newIndex returns a writable index whose first published version, stamped
// version, holds data and tables, with nothing pending.
func newIndex(family Family, k, ell int, version uint64, data []vecmath.Vector, tables []*Table) *Index {
	snap := &Snapshot{
		version: version,
		family:  family,
		k:       k,
		ell:     ell,
		narrow:  isNarrow(k, family.Bits()),
		// Clamp capacity so later delta merges can never append into spare
		// capacity of the caller's slice.
		data:   data[:len(data):len(data)],
		tables: tables,
		pool:   &sync.Pool{},
	}
	x := &Index{pend: newSignatures(snap.narrow, ell, 0)}
	x.cur.Store(snap)
	return x
}

// WriteHook observes the index's write path under the writer lock, in
// exactly the order mutations are applied — the contract the durability
// layer's delta log depends on: OnInsert/OnInsertBatch fire with the ids
// just assigned, OnPublish fires with each freshly published version, and
// no two callbacks ever run concurrently. Callbacks must not call back into
// the index's write methods.
type WriteHook interface {
	OnInsert(id int, v vecmath.Vector)
	OnInsertBatch(first int, vs []vecmath.Vector)
	OnPublish(s *Snapshot)
}

// SetWriteHook installs (or, with nil, removes) the write hook. Mutations
// already pending keep their place: they reach the hook only through the
// OnPublish of the version that publishes them, so callers that need every
// insert logged should install the hook before writing.
func (x *Index) SetWriteHook(h WriteHook) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.hook = h
}

// PublishAndThen publishes any pending inserts and runs fn on the resulting
// snapshot while still holding the writer lock, so no insert or publish can
// interleave between the publication and fn. The durability layer uses this
// to checkpoint: fn persists the snapshot knowing the delta log contains
// nothing beyond it.
func (x *Index) PublishAndThen(fn func(s *Snapshot)) *Snapshot {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.publishLocked(x.cur.Load().version + 1)
	fn(s)
	return s
}

// Build hashes every vector of data into ℓ tables of k concatenated hash
// functions each, through the batched signature engine (see engine.go):
// keyed-stream rows are materialized once per distinct dimension and vector
// signing is parallelized; each table is then built by one serial walk
// over its keys (see build.go). The result is deterministic for a given
// family seed, independent of GOMAXPROCS.
func Build(data []vecmath.Vector, family Family, k, ell int) (*Index, error) {
	return BuildSigned(data, family, k, ell, SignConfig{})
}

// BuildSigned is Build with an explicit signing configuration: a panel
// budget for the projection cache (see SignConfig). The zero config is
// exactly Build, and every config signs identically. The config applies to
// this build only; later InsertBatch and CatchUp calls sign with the
// default budget.
func BuildSigned(data []vecmath.Vector, family Family, k, ell int, cfg SignConfig) (*Index, error) {
	if err := validateParams(family, k, ell); err != nil {
		return nil, err
	}
	if cfg.PanelBytes < 0 {
		return nil, fmt.Errorf("lsh: negative sign panel budget %d", cfg.PanelBytes)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("lsh: empty vector collection")
	}
	sigs := newEngine(family, k, ell, cfg).sign(data)
	return newIndex(family, k, ell, 1, data, sigs.tables(k, family.Bits())), nil
}

// BuildSnapshot builds an index and returns its initial immutable view, for
// callers that only ever read (estimator probes, bipartite joins).
func BuildSnapshot(data []vecmath.Vector, family Family, k, ell int) (*Snapshot, error) {
	x, err := Build(data, family, k, ell)
	if err != nil {
		return nil, err
	}
	return x.Current(), nil
}

// Current returns the latest published snapshot without publishing pending
// inserts. It never blocks.
func (x *Index) Current() *Snapshot { return x.cur.Load() }

// Pending returns the number of inserted vectors not yet published as a
// snapshot. It never blocks; publication policies (see the public
// Collection) use it to decide when to cut a version.
func (x *Index) Pending() int { return int(x.npend.Load()) }

// MaybePublish applies the size-based publication policy every writer
// shares (Options.PublishEvery): it publishes as soon as the pending delta
// holds at least every vectors, and does nothing for every ≤ 0. Snapshot
// re-checks the pending count under the writer lock, so concurrent inserts
// publish each delta exactly once.
func (x *Index) MaybePublish(every int) {
	if every > 0 && x.Pending() >= every {
		x.Snapshot()
	}
}

// Snapshot publishes any pending inserts as a new immutable version and
// returns it. With no pending delta this is one atomic load. The merge cost
// for a d-key delta is O(d · log #buckets) per table, amortized: each key
// costs one probe of the shared bucket lookup (lookup.go), only the buckets
// the delta touches are copied, each landing in the persistent Fenwick
// weight index with one root-path copy (see fenwick.go and dynamic.go), and
// the lookup is rehashed, in O(#buckets), only each time the bucket count
// doubles. There is no prefix-sum rebuild, no bucket-order copy and no map
// copy, so per-insert publication is affordable on large tables.
func (x *Index) Snapshot() *Snapshot {
	if x.npend.Load() == 0 {
		return x.cur.Load()
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.publishLocked(x.cur.Load().version + 1)
}

// publishLocked merges the pending delta into the current snapshot, stamps
// the result with version (above the current one), and atomically swaps it
// in. With nothing pending it returns the current snapshot unchanged.
// Callers must hold x.mu.
func (x *Index) publishLocked(version uint64) *Snapshot {
	cur := x.cur.Load()
	if len(x.pendData) == 0 {
		return cur
	}
	next := &Snapshot{
		version: version,
		family:  cur.family,
		k:       cur.k,
		ell:     cur.ell,
		narrow:  cur.narrow,
		data:    append(cur.data, x.pendData...),
		tables:  make([]*Table, cur.ell),
		pool:    cur.pool,
	}
	for t, tab := range cur.tables {
		if cur.narrow {
			next.tables[t] = merge(tab, x.pend.u64[t])
		} else {
			next.tables[t] = merge(tab, x.pend.str[t])
		}
	}
	x.pend.truncate()
	x.pendData = x.pendData[:0]
	x.cur.Store(next)
	x.npend.Store(0)
	if x.hook != nil {
		x.hook.OnPublish(next)
	}
	return next
}

// Family returns the hash family the index was built with.
func (x *Index) Family() Family { return x.Current().family }

// K returns the number of hash functions per table.
func (x *Index) K() int { return x.Current().k }

// L returns the number of tables ℓ.
func (x *Index) L() int { return x.Current().ell }

// N returns the number of indexed vectors, including pending inserts (which
// it publishes).
func (x *Index) N() int { return x.Snapshot().N() }

// Data returns the indexed vector collection at the latest version
// (publishing pending inserts). Callers must not modify it.
func (x *Index) Data() []vecmath.Vector { return x.Snapshot().data }

// Table returns table t (0-based) at the latest version.
func (x *Index) Table(t int) *Table { return x.Snapshot().tables[t] }

// Tables returns all ℓ tables at the latest version.
func (x *Index) Tables() []*Table { return x.Snapshot().tables }

// KeyFor computes the bucket key of an arbitrary vector in table t at the
// latest version; see Snapshot.KeyFor.
func (x *Index) KeyFor(t int, v vecmath.Vector) string { return x.Snapshot().KeyFor(t, v) }

// SameAnyBucket reports whether vectors i and j share a bucket in at least
// one table at the latest version.
func (x *Index) SameAnyBucket(i, j int) bool { return x.Snapshot().SameAnyBucket(i, j) }

// BucketMultiplicity returns the number of tables in which vectors i and j
// share a bucket (0..ℓ) at the latest version.
func (x *Index) BucketMultiplicity(i, j int) int { return x.Snapshot().BucketMultiplicity(i, j) }

// Query returns the ids of all vectors sharing a bucket with v in any table
// at the latest version; see Snapshot.Query.
func (x *Index) Query(v vecmath.Vector) []int32 { return x.Snapshot().Query(v) }

// Search returns the ids of indexed vectors u with sim(u, v) ≥ τ among the
// LSH candidates of v at the latest version; see Snapshot.Search.
func (x *Index) Search(v vecmath.Vector, tau float64) []int32 { return x.Snapshot().Search(v, tau) }

// SizeBytes estimates the total space of all tables at the latest version.
func (x *Index) SizeBytes() int64 { return x.Snapshot().SizeBytes() }
