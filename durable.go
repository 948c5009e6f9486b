package lshjoin

import (
	"fmt"
	"slices"

	"lshjoin/internal/core"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
)

// Typed store errors, re-exported so callers can errors.Is against them
// without importing internals.
var (
	// ErrNoStore reports an Open of a directory holding no store.
	ErrNoStore = persist.ErrNotExist
	// ErrStoreExists reports a New/NewSharded with Options.Dir naming a
	// directory that already holds a store.
	ErrStoreExists = persist.ErrExists
	// ErrCorruptStore reports on-disk state recovery must not paper over:
	// checksum mismatches away from the delta-log tail, version skew
	// between files, impossible structure. A torn log tail is NOT corrupt —
	// it is truncated silently and the last durable version served.
	ErrCorruptStore = persist.ErrCorrupt
)

// adopt folds the hashing identity a source reports — a store on disk or
// the shard servers — into opt under the adopt-or-assert rule. Hashing
// fields (K, Tables, Seed, Measure, Shards) are owned by the source: leaving
// them zero adopts the source's values, setting them is an assertion that
// must match (ErrInvalidOptions otherwise) — there is no way to rehash a
// store by reopening it with different options. Runtime-only fields
// (PublishEvery) pass through untouched. A family the package does not
// know is the source's fault and wraps corrupt (ErrCorruptStore for a
// store, ErrShardProtocol for shard servers).
func adopt(opt Options, source string, corrupt error, spec lsh.FamilySpec, k, tables, shards int) (Options, error) {
	var measure Measure
	switch spec.Name {
	case "simhash":
		measure = CosineSimilarity
	case "minhash":
		measure = JaccardSimilarity
	default:
		return opt, fmt.Errorf("lshjoin: %s hashes with unsupported family %q: %w", source, spec.Name, corrupt)
	}
	if opt.K != 0 && opt.K != k {
		return opt, fmt.Errorf("%w: K = %d but %s hashes with K = %d", ErrInvalidOptions, opt.K, source, k)
	}
	if opt.Tables != 0 && opt.Tables != tables {
		return opt, fmt.Errorf("%w: Tables = %d but %s hashes with %d", ErrInvalidOptions, opt.Tables, source, tables)
	}
	if opt.Seed != 0 && opt.Seed != spec.Seed {
		return opt, fmt.Errorf("%w: Seed = %d but %s hashes with %d", ErrInvalidOptions, opt.Seed, source, spec.Seed)
	}
	if opt.Measure != measure && opt.Measure != CosineSimilarity {
		return opt, fmt.Errorf("%w: Measure conflicts with the hash family %q of %s", ErrInvalidOptions, spec.Name, source)
	}
	if opt.Shards != 0 && opt.Shards != shards {
		return opt, fmt.Errorf("%w: Shards = %d but %s holds %d", ErrInvalidOptions, opt.Shards, source, shards)
	}
	opt.K, opt.Tables, opt.Seed, opt.Measure, opt.Shards = k, tables, spec.Seed, measure, shards
	return opt, nil
}

// applyStorePolicy folds the runtime store knobs of opt into freshly
// created or recovered stores.
func applyStorePolicy(opt Options, stores ...*persist.Store) {
	if opt.CheckpointBytes > 0 {
		for _, st := range stores {
			st.SetCheckpointBytes(opt.CheckpointBytes)
		}
	}
}

// adoptStores reconciles opt with the hashing identity recovered from disk
// (see adopt) and applies the runtime store policy; on a conflict it closes
// the stores.
func adoptStores(opt Options, stores []*persist.Store, spec lsh.FamilySpec, k, tables, shards int) (Options, error) {
	opt, err := adopt(opt, "the store", ErrCorruptStore, spec, k, tables, shards)
	if err != nil {
		for _, st := range stores {
			st.Close()
		}
		return opt, err
	}
	applyStorePolicy(opt, stores...)
	return opt, nil
}

// Open recovers the durable collection stored in dir: the last checkpoint
// is loaded, the delta log's valid prefix replayed (a torn tail is
// truncated, never served), and the resulting collection is deep-equal to
// the last durably published version — estimates, searches and SamplePair
// streams included. Hashing options are recovered from disk; opt may leave
// them zero or assert matching values (see Options.Dir), and supplies
// runtime policies like PublishEvery. Errors: ErrNoStore if dir holds no
// store, ErrCorruptStore if its state fails validation, ErrInvalidOptions
// on conflicting options.
func Open(dir string, opt Options) (*Collection, error) {
	opt.Dir = dir // before validation: Dir-dependent rejections must fire
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	opt, index, store, err := openPlain(opt)
	if err != nil {
		return nil, err
	}
	group, err := lsh.NewShardGroupFromIndexes(index.Family(), index.K(), index.L(), []*lsh.Index{index})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	c := &Collection{}
	c.init(opt, group)
	c.stores = []*persist.Store{store}
	return c, nil
}

// openPlain recovers the plain single-store layout in opt.Dir — what New
// and persist.Create write — and reconciles opt with its hashing identity.
func openPlain(opt Options) (Options, *lsh.Index, *persist.Store, error) {
	index, store, err := persist.Open(faultfs.OS{}, opt.Dir)
	if err != nil {
		return opt, nil, nil, fmt.Errorf("lshjoin: %w", err)
	}
	spec, err := lsh.SpecOf(index.Family())
	if err != nil {
		store.Close()
		return opt, nil, nil, fmt.Errorf("lshjoin: %w", err)
	}
	opt.Shards = 0 // a plain store has no shard count to assert against
	if opt, err = adoptStores(opt, []*persist.Store{store}, spec, index.K(), index.L(), 1); err != nil {
		return opt, nil, nil, err
	}
	return opt, index, store, nil
}

// OpenSharded recovers the durable sharded collection stored in dir: the
// group manifest names the shape, every shard recovers independently
// (checkpoint + delta-log replay), and the reassembled collection routes,
// estimates and samples exactly as the one that wrote the store. Options
// semantics match Open, with Shards also recoverable or assertable.
func OpenSharded(dir string, opt Options) (*ShardedCollection, error) {
	opt.Dir = dir // before validation: Dir-dependent rejections must fire
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	group, stores, meta, err := persist.OpenGroup(faultfs.OS{}, dir)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	if opt, err = adoptStores(opt, stores, meta.Family, meta.K, meta.Ell, meta.Shards); err != nil {
		return nil, err
	}
	c := &ShardedCollection{}
	c.init(opt, group)
	c.stores, c.seal = stores, groupSeal(dir, group)
	return c, nil
}

// OpenCrossJoin recovers the durable cross join stored in dir: the cross
// manifest names the shared shape, then each side's group store recovers
// independently — every shard to its last durably published version — so
// the reopened join serves estimates over a componentwise-consistent
// version-vector pair, draw-for-draw identical to the writer's own view of
// those versions. Options semantics match OpenSharded (Tables, if asserted,
// must be 1). Errors: ErrNoStore if dir holds no cross store,
// ErrCorruptStore if its state fails validation, ErrInvalidOptions on
// conflicting options.
func OpenCrossJoin(dir string, opt Options) (*CrossJoin, error) {
	opt.Dir = dir // before validation: Dir-dependent rejections must fire
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	left, right, leftStores, rightStores, meta, err := persist.OpenCross(faultfs.OS{}, dir)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	if opt, err = adoptStores(opt, slices.Concat(leftStores, rightStores), meta.Family, meta.K, 1, meta.Shards); err != nil {
		return nil, err
	}
	_, sim := familyFor(opt)
	return &CrossJoin{
		opt:         opt,
		family:      left.Family(),
		sim:         sim,
		left:        left,
		right:       right,
		leftStores:  leftStores,
		rightStores: rightStores,
		strat:       core.NewBipartiteStratumCache(0),
	}, nil
}

// closeStores makes durable state final: every index publishes and its
// store checkpoints the result, seal (nil for a plain store) rewrites the
// manifests with the final durable version vector, and every store closes.
// It returns the first error, a store's sticky error included.
func closeStores(indexes []*lsh.Index, stores []*persist.Store, seal func(versions []uint64) error) error {
	var cerr error
	keep := func(err error) {
		if err != nil && cerr == nil {
			cerr = err
		}
	}
	versions := make([]uint64, len(stores))
	for s, st := range stores {
		indexes[s].PublishAndThen(func(snap *lsh.Snapshot) { keep(st.Checkpoint(snap)) })
		versions[s] = st.DurableVersion()
	}
	if seal != nil {
		keep(seal(versions))
	}
	for _, st := range stores {
		keep(st.Close())
	}
	if cerr != nil {
		return fmt.Errorf("lshjoin: close: %w", cerr)
	}
	return nil
}

// groupSeal returns the seal of a group store in dir: it rewrites the
// group manifest with g's shape and the final shard version vector.
func groupSeal(dir string, g *lsh.ShardGroup) func(versions []uint64) error {
	return func(versions []uint64) error {
		spec, err := lsh.SpecOf(g.Family())
		if err != nil {
			return err
		}
		return persist.WriteGroupManifest(faultfs.OS{}, dir, persist.GroupMeta{
			Family: spec, K: g.K(), Ell: g.L(), Shards: g.S(), Versions: versions,
		})
	}
}

// Close makes the collection durable at its current version — pending
// inserts are published on every shard, each shard checkpointed and
// fsynced, and a sharded collection's group manifest rewritten with the
// final shard version vector — and releases the stores. It returns the
// first sticky store error, if any: a non-nil return means some earlier
// publish may not have reached disk and the checkpoint could not repair
// it. Close is idempotent; a purely in-memory collection closes trivially.
// The collection must not be used afterwards.
func (c *inProcess) Close() error {
	if c.stores == nil || !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return closeStores(c.group.Indexes(), c.stores, c.seal)
}

// Close makes both sides durable at their current versions — every shard
// publishes and checkpoints — rewrites each side's group manifest and the
// cross manifest with the final version-vector pair, then releases the
// stores. Semantics otherwise match Collection.Close: idempotent, trivial
// for in-memory cross joins, and the first sticky store error is returned.
func (cj *CrossJoin) Close() error {
	if cj.leftStores == nil || !cj.closed.CompareAndSwap(false, true) {
		return nil
	}
	S := cj.left.S()
	leftSeal := groupSeal(persist.CrossSideDir(cj.opt.Dir, true), cj.left)
	rightSeal := groupSeal(persist.CrossSideDir(cj.opt.Dir, false), cj.right)
	seal := func(versions []uint64) error {
		lvers, rvers := versions[:S], versions[S:]
		lerr, rerr := leftSeal(lvers), rightSeal(rvers)
		if lerr != nil {
			return lerr
		}
		if rerr != nil {
			return rerr
		}
		spec, err := lsh.SpecOf(cj.family)
		if err != nil {
			return err
		}
		return persist.WriteCrossManifest(faultfs.OS{}, cj.opt.Dir, persist.CrossMeta{
			Family: spec, K: cj.opt.K, Shards: S, LeftVersions: lvers, RightVersions: rvers,
		})
	}
	return closeStores(slices.Concat(cj.left.Indexes(), cj.right.Indexes()),
		slices.Concat(cj.leftStores, cj.rightStores), seal)
}
