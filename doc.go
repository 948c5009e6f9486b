// Package lshjoin estimates the size of vector similarity self-joins and
// cross-joins using Locality Sensitive Hashing, implementing Lee, Ng and
// Shim, "Similarity Join Size Estimation using Locality Sensitive Hashing"
// (PVLDB 4(6), 2011).
//
// Given a collection of sparse vectors and a cosine (or Jaccard) similarity
// threshold τ, the package answers "how many pairs have similarity ≥ τ?"
// quickly and reliably across the whole threshold range — including the very
// high thresholds (selectivity ~1e-7 %) where plain random sampling
// fluctuates between zero and enormous overestimates. The headline
// algorithm, LSH-SS, stratifies the pair space by an LSH table into
// co-bucketed pairs (sampled directly, with bucket-count weighting) and
// everything else (Lipton-style adaptive sampling with a safe lower bound),
// needing only bucket counts on top of a standard LSH index.
//
// # Quick start
//
//	vecs, _ := lshjoin.GenerateDataset(lshjoin.DatasetDBLP, 10000, 42)
//	coll, _ := lshjoin.New(vecs, lshjoin.Options{})
//	est, _ := coll.EstimateJoinSize(0.8) // LSH-SS with paper defaults
//	exact, _ := coll.ExactJoinSize(0.8)  // inverted-index ground truth
//
// Beyond LSH-SS the package ships every algorithm of the paper's evaluation
// (RS(pop), RS(cross), J_U, LSH-S, LSH-SS(D), the adapted Lattice Counting
// baseline, the multi-table median and virtual-bucket estimators, and the
// non-self-join variants), an exact similarity join for ground truth, and a
// benchmark harness regenerating every table and figure of the paper — see
// DESIGN.md and EXPERIMENTS.md.
//
// # Concurrency
//
// A Collection serves reads while it ingests. Insert and InsertBatch
// append to a pending delta; reads run against immutable snapshots that
// are published with a single atomic pointer swap, so Estimate,
// SearchSimilar, ExactJoinSize and JoinPairs never block each other and
// never observe a half-applied mutation. Estimators bind to the snapshot
// current at their construction and keep answering over that version
// forever — there is no staleness error and nothing to rebuild; construct
// a new estimator (cheap) to observe newer data. All Collection methods
// are safe for unsynchronized concurrent use.
//
// Publication is incremental: each table's bucket sequence and sampling
// weights live in a persistent (path-copying) Fenwick weight index that
// consecutive versions share structurally, so publishing a d-vector delta
// costs O(d · log #buckets) per table — independent of how many buckets
// the tables hold — instead of an O(#buckets) prefix-sum rebuild. That
// makes per-insert publication affordable: set Options.PublishEvery to 1
// (or any delta size) and Insert cuts a fresh lock-free version under
// that policy; leave it 0 to publish lazily on the next read.
//
// For write-heavy serving, NewSharded partitions the key space across
// Options.Shards independent index shards. Routing is consistent
// key-hashing over vector content, so a vector's home shard is a pure
// function of its value; inserts on different shards never contend, and
// each shard publishes its own versions under the same incremental
// machinery. Reads capture a shard-snapshot vector (one atomic pointer
// load per shard) and estimators merge the per-shard statistics exactly:
// bucket keys are shard-invariant, so the union stratum H decomposes into
// per-shard N_H sums plus cross-shard bipartite bucket matchings, and
// every algorithm of the paper answers over shards. A Collection is the
// one-shard case: it holds a one-shard group and runs the very same read
// path, so a ShardedCollection with Shards == 1 answers draw for draw what
// a Collection built from the same vectors and options answers; only the
// on-disk layout differs (a plain store rather than a group store).
//
// General (non-self) joins serve the same way. A CrossJoin is a live
// object: both sides accept InsertLeft / InsertRight (and batch forms)
// concurrently with estimates, Options.PublishEvery applies per side and
// per shard, and Options.Shards partitions each side across independent
// index shards. Estimates capture a pair of shard-snapshot vectors and
// stratify by the merged bipartite bucket matching of App. B.2.2 — the
// S_left·S_right per-shard-pair matchings partition the cross stratum H,
// so N_H, M and membership equal the unsharded union exactly. A CrossJoin
// with Shards == 1 is guaranteed draw-for-draw identical to the static
// single-snapshot cross join of earlier releases: same indexes, same
// estimator seed stream, same results (the seed-stream golden test pins
// this). Multi-table cross joins are rejected with an error — the general
// estimator stratifies by the single bipartite matching.
//
// # Durability
//
// Set Options.Dir to make a Collection or ShardedCollection crash-safe.
// New creates a store in that directory (ErrStoreExists if one is already
// there); Open and OpenSharded recover one, deriving K, Tables, Seed and
// Measure from disk — pass zero Options fields to adopt the stored values,
// or set them as assertions that must match (ErrInvalidOptions otherwise).
//
// The store is a checkpoint plus a delta log. A checkpoint is a versioned,
// section-checksummed (CRC32C) snapshot file — family parameters, bucket
// sequences in first-appearance order, vectors — written to a temp file,
// fsynced, atomically renamed, and named by a MANIFEST that is itself
// replaced atomically, so a checkpoint either fully exists or does not
// exist at all. Between checkpoints every Insert appends a length-prefixed,
// checksummed record to the log; records buffer in memory and are flushed
// and fsynced at publish boundaries, making the published version the unit
// of durability: once a publish returns, that version survives any crash.
//
// Checkpoint rotation runs off the publish path. Once the delta log grows
// past Options.CheckpointBytes (default 4 MiB), publish switches to a
// fresh log file and hands the accumulated version to a per-store
// background checkpointer, so the publish itself only appends and fsyncs —
// its latency stays flat no matter how large the snapshot has grown. A
// rotation failure surfaces as a sticky store error on the next publish,
// and Close drains the checkpointer before writing the final checkpoint.
//
// Recovery loads the newest checkpoint and replays the log's valid prefix.
// A torn tail — a record half-written when the machine died — is detected
// by its checksum, truncated, and never served; the collection reopens at
// the last durably published version, deep-equal to what readers saw then,
// down to draw-for-draw identical estimator streams. Damage that cannot be
// a torn tail (a flipped byte mid-file, version skew between files, a
// missing manifest over live data) refuses to load with ErrCorruptStore
// rather than guessing. A sharded store keeps one such sub-store per shard
// under a group manifest, and every shard recovers independently.
//
// Cross joins persist the same way: NewCrossJoin with Options.Dir lays out
// one group store per side under a single CROSS manifest, written last at
// creation so the two-sided store either fully exists or not at all.
// OpenCrossJoin recovers both sides to a componentwise-consistent pair of
// published version vectors and the reopened join is draw-for-draw
// identical to the in-memory pipeline at those versions; CrossJoin.Close
// flushes and checkpoints both sides and stamps their final version
// vectors into the manifest. The crash-consistency property tests
// (internal/lsh/persist) drive every write — single-store, mid-rotation
// background-checkpoint, and two-sided cross workloads — through an
// injectable filesystem and check exactly this contract at every injection
// point. See examples/durable for the full lifecycle.
//
// # Network serving
//
// The sharded pipeline also runs across processes. A ShardServer owns one
// shard — an index, optionally durable via Options.Dir — and serves a small
// length-prefixed binary protocol over TCP (DESIGN.md documents the wire
// format): streamed ingest, snapshot fetches with a version-checked
// not-modified fast path, summary digests, and server-side sample batches.
// Connect dials S such servers and returns a RemoteCollection sharing
// ShardedCollection's read path; only capture and ingest are remote:
// inserts route to their home shard with the same content hashing and id
// assignment, and reads fetch per-shard snapshots in parallel (cached by
// version), reassemble the group view, and from there run the same
// estimators, exact joins and searches locally under the same seed stream.
// A distributed estimate is therefore bit-equal — not approximately equal —
// to the in-process sharded one for the same vectors, options and
// estimator seeds; a property test pins this over real sockets for all ten
// algorithms, and VerifyShardSampling cross-checks a live server's sample
// stream draw for draw.
//
// Failures are typed and bounded: a shard that cannot be reached within
// the call timeout (after deterministic-backoff retries) fails the read
// with ErrShardUnavailable, a malformed or mismatched response fails it
// with ErrShardProtocol, and there are never partial estimates over a
// subset of shards. Ingest is not replayed once its bytes may have reached
// a server. See cmd/vsjserve (serve / coordinate / loadgen; the loadgen
// baseline is tracked in BENCH_serve.json) and examples/netserve.
//
// # Performance
//
// Index construction and bulk loading run through a batched signature
// engine (internal/lsh/engine.go): keyed gaussian / rank rows are
// materialized once per distinct corpus dimension instead of once per
// vector, bucket keys are packed machine words whenever k·Bits() ≤ 64, and
// signing parallelizes across cores. Bucket insertion is shard-parallel
// (internal/lsh/build.go): keys scatter across fixed key-hash shards whose
// buckets build independently and merge into the canonical first-appearance
// order, byte-identical to a serial build at any GOMAXPROCS. Estimator
// sampling (LSH-SS's SampleH and SampleL, and the multi-table median) fans
// out across deterministic RNG-split shards, so estimates are bit-for-bit
// reproducible for a given seed at any GOMAXPROCS.
//
// The signing inner loops are vectorized on amd64: AVX2 multiply-add
// kernels accumulate four projection rows per pass, and the keyed gaussian
// row fill runs through a fused hash-prep + table-interpolation kernel pair
// (internal/kernel). Every kernel has a portable Go reference used on other
// architectures or under `-tags purego`, and equivalence tests pin the two
// bit-for-bit, so signatures — and therefore buckets, snapshots, and
// estimates — never depend on the build. Projections for all ℓ tables are
// cached in one ℓ·k-wide dimension-major panel (one vocabulary pass per
// corpus instead of ℓ), and builds stream that panel in column blocks
// bounded by Options.SignPanelBytes, so signing memory stays flat however
// large the vocabulary grows.
//
// Run `vsjbench -perf` to regenerate the BENCH_lsh.json hot-path timings
// tracked in the repository root, including a mixed Estimate+Insert serving
// benchmark and the fused and panel-streamed signing paths.
//
// # Invariant checking
//
// The correctness rules the compiler cannot see — VEX-only assembly, atomic
// estimator seed streams, componentwise version-vector dominance, the
// persist lock order, sentinel-error comparison via errors.Is, length-guarded
// decoders, fault-injectable file I/O — are machine-checked by the static
// analyzer suite in cmd/vsjlint (internal/analysis), which CI runs over
// every package; see DESIGN.md's "Static analysis" section.
package lshjoin
