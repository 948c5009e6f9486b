package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lshjoin"
	"lshjoin/internal/core"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Perf trajectory tooling: `vsjbench -perf` times the hot paths of the LSH
// layer (index build, per-vector signing, LSH-SS estimation, candidate
// retrieval, snapshot publication — including per-insert publication through
// the Fenwick weight index at two bucket counts — mixed Estimate+Insert
// serving workloads, single index and 4-shard, the sharded cross-join
// estimate path, and a coordinator catching two shard servers up under
// ingest) with testing.Benchmark and writes the results as JSON.
// The file is committed as BENCH_lsh.json at the repo root so future changes
// can be diffed against the recorded baseline; GOMAXPROCS is pinned by the
// -gomaxprocs flag (default 1) before any benchmark runs, so entries are
// comparable across machines.
//
// `-perf -compare <baseline.json>` is the CI perf gate: after recording, the
// gated hot-path benchmarks are checked against the baseline's ns/op with a
// fractional tolerance (-tolerance, default ±30%), and any regression — or a
// gated benchmark missing from either side — fails the run.

type perfResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type perfReport struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Corpus     string       `json:"corpus"`
	Results    []perfResult `json:"results"`
}

// perfData mirrors the DBLP-shaped corpus of the lsh package benchmarks.
func perfData(n, dims, nnz int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		ds := make([]uint32, nnz)
		for j := range ds {
			ds[j] = uint32(rng.Intn(dims))
		}
		data[i] = vecmath.FromDims(ds)
	}
	return data
}

func runPerf(outPath string) (*perfReport, error) {
	const (
		n    = 5000
		dims = 56000
		nnz  = 14
		k    = 20
	)
	data := perfData(n, dims, nnz, 1)
	snap8, err := lsh.BuildSnapshot(data, lsh.NewSimHash(3), 8, 4)
	if err != nil {
		return nil, err
	}
	snap1, err := lsh.BuildSnapshot(data, lsh.NewSimHash(5), k, 1)
	if err != nil {
		return nil, err
	}
	est, err := core.NewMergedLSHSS(lsh.SingleSnapshot(snap1), nil)
	if err != nil {
		return nil, err
	}
	// est's stratum holds a few pairs, far fewer than its m_H = n draws,
	// so SampleH scores it flat; est8's (k = 8) holds about ten times m_H,
	// so its draws descend the weight tree.
	est8, err := core.NewMergedLSHSS(lsh.SingleSnapshot(snap8), nil)
	if err != nil {
		return nil, err
	}

	report := perfReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     fmt.Sprintf("uniform n=%d dims=%d nnz=%d", n, dims, nnz),
	}
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report.Results = append(report.Results, perfResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	add("build_k20_l1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lsh.Build(data, lsh.NewSimHash(uint64(i+1)), k, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sign_fused_k20_l8", func(b *testing.B) {
		// 8 fused tables: ℓ·k = 160 lanes per vocabulary row, all signed in
		// one pass over a resident projection cache.
		for i := 0; i < b.N; i++ {
			if _, err := lsh.SignDigest(data, lsh.NewSimHash(uint64(i+1)), k, 8, lsh.SignConfig{PanelBytes: 256 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("sign_panel_streamed", func(b *testing.B) {
		// Same workload under a 4 MiB budget: the projection cache streams in
		// dimension-block panels with identical output.
		for i := 0; i < b.N; i++ {
			if _, err := lsh.SignDigest(data, lsh.NewSimHash(uint64(i+1)), k, 8, lsh.SignConfig{PanelBytes: 4 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("signature_simhash_k20_naive", func(b *testing.B) {
		f := lsh.NewSimHash(7)
		for i := 0; i < b.N; i++ {
			for fn := 0; fn < k; fn++ {
				_ = f.Hash(fn, data[0])
			}
		}
	})
	add("estimate_lshss_tau08", func(b *testing.B) {
		rng := xrand.New(11)
		for i := 0; i < b.N; i++ {
			if _, err := est.Estimate(0.8, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("estimate_lshss_k8_tau08", func(b *testing.B) {
		rng := xrand.New(11)
		for i := 0; i < b.N; i++ {
			if _, err := est8.Estimate(0.8, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("query_k8_l4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = snap8.Query(data[i%len(data)])
		}
	})
	add("insert_batch_1000_k20_publish", func(b *testing.B) {
		tail := perfData(1000, dims, nnz, 2)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix, err := lsh.Build(data, lsh.NewSimHash(uint64(i+1)), k, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			ix.InsertBatch(tail)
			ix.Snapshot()
		}
	})
	add("snapshot_publish_after_insert", func(b *testing.B) {
		ix, err := lsh.Build(data, lsh.NewSimHash(13), k, 1)
		if err != nil {
			b.Fatal(err)
		}
		v := data[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Insert(v)
			ix.Snapshot()
		}
	})
	// Per-insert publication through the public policy (PublishEvery=1):
	// every Insert cuts a fresh Fenwick-merged version. Run at the base
	// corpus and at 4× the buckets — every insert repeats one vector, so it
	// lands in an existing bucket, and the ns/op pair shows that publishing
	// such inserts costs about the same at 4× the buckets (the
	// O(d · log #buckets) merge contract). publish_per_insert_fresh below
	// covers inserts that open buckets.
	perInsert := func(nvec int, seed uint64) func(b *testing.B) {
		return func(b *testing.B) {
			corpus := perfData(nvec, dims, nnz, seed)
			coll, err := lshjoin.New(corpus, lshjoin.Options{K: k, Seed: seed, PublishEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			v := corpus[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coll.Insert(v)
			}
		}
	}
	add("publish_per_insert", perInsert(n, 17))
	add("publish_per_insert_4x_buckets", perInsert(4*n, 19))
	// Per-insert publication of fresh DBLP vectors, 91% of which open a
	// bucket at k = 20: each op builds a 20k-vector Collection untimed and
	// times a run of 13k inserts, each published on its own. The run grows
	// the bucket count by more than half, so a publication cost that grows
	// with the bucket count shows in ns/op.
	dblp, err := lshjoin.GenerateDataset(lshjoin.DatasetDBLP, 50000, 47)
	if err != nil {
		return nil, err
	}
	add("publish_per_insert_fresh", func(b *testing.B) {
		corpus, fresh := dblp[:20000], dblp[20000:33000]
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			coll, err := lshjoin.New(corpus, lshjoin.Options{K: k, Seed: 53, PublishEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, v := range fresh {
				coll.Insert(v)
			}
		}
	})
	// Mixed serving workload: a background writer streams single-vector
	// inserts into a live Collection while the measured loop constructs a
	// snapshot-bound estimator and answers one estimate per op — the
	// "estimate under ingest" case the snapshot refactor exists for.
	add("serve_mixed_estimate_insert", func(b *testing.B) {
		coll, err := lshjoin.New(data, lshjoin.Options{K: k, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		tail := perfData(2000, dims, nnz, 3)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				coll.Insert(tail[i%len(tail)])
				runtime.Gosched()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := coll.Estimator(lshjoin.AlgoLSHSS,
				lshjoin.WithEstimatorSeed(uint64(i+1)),
				lshjoin.WithSampleBudget(500, 500))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Estimate(0.8); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	// Sharded serving workload: same shape as serve_mixed_estimate_insert,
	// but over a 4-shard collection — background inserts spread across
	// shards with per-insert publication while the measured loop builds a
	// merged estimator over the captured shard-snapshot vector and answers
	// one estimate per op.
	add("sharded_serve_s4_estimate_insert", func(b *testing.B) {
		coll, err := lshjoin.NewSharded(data, lshjoin.Options{K: k, Seed: 7, Shards: 4, PublishEvery: 1})
		if err != nil {
			b.Fatal(err)
		}
		tail := perfData(2000, dims, nnz, 3)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				coll.Insert(tail[i%len(tail)])
				runtime.Gosched()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := coll.Estimator(lshjoin.AlgoLSHSS,
				lshjoin.WithEstimatorSeed(uint64(i+1)),
				lshjoin.WithSampleBudget(500, 500))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Estimate(0.8); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})

	// Sharded cross-join serving: a live 4-shard-per-side CrossJoin answers
	// one general LSH-SS estimate per op. Each estimate captures the two
	// shard-snapshot vectors, builds the merged bipartite stratum (the
	// S_left·S_right per-shard-pair bucket matchings) and samples through
	// it — the whole general-join serving path of App. B.2.2 over shards.
	add("cross_join_sharded_estimate", func(b *testing.B) {
		right := perfData(3000, dims, nnz, 5)
		copy(right[:300], data[:300]) // plant cross matches
		cj, err := lshjoin.NewCrossJoinSharded(data, right, lshjoin.Options{K: k, Seed: 7}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cj.EstimateJoinSizeBudget(0.8, 500, 500); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Durable store hot paths: checkpointing a full n-vector snapshot
	// (encode + write + fsync + atomic rename), cold-opening a checkpointed
	// store, and recovery that replays a 1000-record delta log on top of
	// its checkpoint — the three costs a crash-safe serving process pays.
	add("snapshot_save", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "vsjbench-save-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		ix, err := lsh.Build(data, lsh.NewSimHash(23), k, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := persist.Create(faultfs.OS{}, dir, ix)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		snap := ix.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Checkpoint(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("snapshot_load", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "vsjbench-load-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		ix, err := lsh.Build(data, lsh.NewSimHash(23), k, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := persist.Create(faultfs.OS{}, dir, ix)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := persist.Open(faultfs.OS{}, dir)
			if err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	})
	// recoverReplay times persist.Open of a store whose delta log holds
	// 1000 inserts, published once at the end or, with publishEach, one by
	// one as Options.PublishEvery 1 logs them: 1000 records under 1000
	// publish markers.
	recoverReplay := func(publishEach bool) func(b *testing.B) {
		return func(b *testing.B) {
			dir, err := os.MkdirTemp("", "vsjbench-replay-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			ix, err := lsh.Build(data, lsh.NewSimHash(23), k, 1)
			if err != nil {
				b.Fatal(err)
			}
			st, err := persist.Create(faultfs.OS{}, dir, ix)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range perfData(1000, dims, nnz, 29) {
				ix.Insert(v)
				if publishEach {
					ix.Snapshot()
				}
			}
			want := ix.Snapshot() // publish: flushes and fsyncs the delta log
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rx, st, err := persist.Open(faultfs.OS{}, dir)
				if err != nil {
					b.Fatal(err)
				}
				if got := rx.Current(); got.N() != want.N() || got.Version() != want.Version() {
					b.Fatalf("recovered %d vectors at version %d, want %d at %d", got.N(), got.Version(), want.N(), want.Version())
				}
				st.Close()
			}
		}
	}
	add("recover_replay_1000", recoverReplay(false))
	add("recover_replay_publish_each_1000", recoverReplay(true)) // not gated

	// Durable cross-join hot paths: checkpointing both sides' shard stores
	// (the cost CrossJoin.Close pays), and recovering the whole two-sided
	// store through the public opener.
	add("cross_join_checkpoint", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "vsjbench-xckpt-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fam := lsh.NewSimHash(31)
		lg, err := lsh.NewShardGroup(data[:2000], fam, k, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		rg, err := lsh.NewShardGroup(perfData(2000, dims, nnz, 37), fam, k, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		lst, rst, err := persist.CreateCross(faultfs.OS{}, dir, lg, rg)
		if err != nil {
			b.Fatal(err)
		}
		groups := []*lsh.ShardGroup{lg, rg}
		stores := [][]*persist.Store{lst, rst}
		defer func() {
			for _, side := range stores {
				for _, st := range side {
					st.Close()
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for side, g := range groups {
				for s := 0; s < g.S(); s++ {
					if err := stores[side][s].Checkpoint(g.Shard(s).Snapshot()); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	add("cross_join_recover", func(b *testing.B) {
		tmp, err := os.MkdirTemp("", "vsjbench-xrec-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir := tmp + "/xj"
		right := perfData(2000, dims, nnz, 41)
		cj, err := lshjoin.NewCrossJoin(data[:2000], right, lshjoin.Options{K: k, Seed: 7, Shards: 2, Dir: dir, PublishEvery: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Leave a published-but-not-checkpointed tail so recovery replays a
		// real delta log, then close cleanly.
		tail := perfData(200, dims, nnz, 43)
		for i, v := range tail {
			if i%2 == 0 {
				cj.InsertLeft(v)
			} else {
				cj.InsertRight(v)
			}
		}
		if err := cj.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := lshjoin.OpenCrossJoin(dir, lshjoin.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer() // Close re-checkpoints; keep the op pure recovery
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	// Per-insert publication on a durable collection with an aggressive
	// rotation threshold: every few publishes switch to a fresh delta log and
	// hand the checkpoint to the background goroutine. The measured loop is
	// the publish tail — append + fsync only — so its ns/op must stay flat
	// relative to publish_per_insert plus the fsync, not grow by a full
	// snapshot encode per rotation.
	add("publish_tail_with_rotation", func(b *testing.B) {
		tmp, err := os.MkdirTemp("", "vsjbench-rot-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		coll, err := lshjoin.New(data[:2000], lshjoin.Options{
			K: k, Seed: 31, Dir: tmp + "/db", PublishEvery: 1, CheckpointBytes: 64 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		v := data[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			coll.Insert(v)
		}
		b.StopTimer()
		if err := coll.Close(); err != nil {
			b.Fatal(err)
		}
	})

	// Coordinator reads under ingest (not gated): two in-process shard
	// servers over loopback hold a 20k-vector DBLP corpus, and each op
	// inserts 24 fresh vectors through a RemoteCollection and reads N. The
	// read brings both shard replicas up to date by the vectors each shard
	// published since the previous op — coord_ingest's read path in the
	// repository benchmark, without the estimate.
	add("remote_catchup_ingest24", func(b *testing.B) {
		const batch = 24
		corpus, pool := dblp[:20000], dblp[20000:]
		opt := lshjoin.Options{K: k, Tables: 2}
		var addrs []string
		for s := 0; s < 2; s++ {
			srv, err := lshjoin.NewShardServer(opt)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- srv.Serve(ln) }()
			defer func() {
				srv.Close()
				<-errc
			}()
			addrs = append(addrs, ln.Addr().String())
		}
		rem, err := lshjoin.Connect(addrs, lshjoin.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer rem.Close()
		if _, err := rem.InsertBatch(corpus); err != nil {
			b.Fatal(err)
		}
		if _, err := rem.N(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := i * batch % (len(pool) - batch)
			if _, err := rem.InsertBatch(pool[lo : lo+batch]); err != nil {
				b.Fatal(err)
			}
			if _, err := rem.N(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(buf)
		return &report, err
	}
	return &report, os.WriteFile(outPath, buf, 0o644)
}

// gatedBenchmarks names the hot paths the CI perf gate enforces: index
// build, candidate retrieval, estimation, snapshot publication and the two
// serving workloads. Non-gated entries (such as the naive signing baseline)
// are recorded for trajectory only.
var gatedBenchmarks = []string{
	"build_k20_l1",
	"sign_fused_k20_l8",
	"sign_panel_streamed",
	"query_k8_l4",
	"estimate_lshss_tau08",
	"snapshot_publish_after_insert",
	"publish_per_insert",
	"publish_per_insert_fresh",
	"insert_batch_1000_k20_publish",
	"serve_mixed_estimate_insert",
	"sharded_serve_s4_estimate_insert",
	"cross_join_sharded_estimate",
	"snapshot_save",
	"snapshot_load",
	"recover_replay_1000",
	"cross_join_checkpoint",
	"cross_join_recover",
	"publish_tail_with_rotation",
}

// comparePerf gates a fresh perf report against the committed baseline:
// every gated benchmark must exist on both sides and its fresh ns/op must
// not exceed baseline·(1+tol). Exceeding the tolerance — or a missing gated
// entry — returns an error listing every violation.
func comparePerf(baselinePath string, fresh *perfReport, tol float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf gate: %w", err)
	}
	var baseline perfReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("perf gate: parsing %s: %w", baselinePath, err)
	}
	if fresh.GOMAXPROCS != baseline.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "perf gate: warning: GOMAXPROCS %d vs baseline %d — timings may not be comparable\n",
			fresh.GOMAXPROCS, baseline.GOMAXPROCS)
	}
	index := func(r *perfReport) map[string]perfResult {
		m := make(map[string]perfResult, len(r.Results))
		for _, res := range r.Results {
			m[res.Name] = res
		}
		return m
	}
	base, cur := index(&baseline), index(fresh)
	var violations []string
	for _, name := range gatedBenchmarks {
		b, okB := base[name]
		c, okC := cur[name]
		switch {
		case !okB:
			violations = append(violations, fmt.Sprintf("%s: missing from baseline %s (re-record it)", name, baselinePath))
		case !okC:
			violations = append(violations, fmt.Sprintf("%s: missing from fresh run", name))
		case c.NsPerOp > b.NsPerOp*(1+tol):
			violations = append(violations, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%% > +%.0f%% tolerance)",
				name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), 100*tol))
		default:
			fmt.Fprintf(os.Stderr, "perf gate: ok %-36s %10.0f ns/op (baseline %10.0f, %+.0f%%)\n",
				name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("perf gate: %d hot-path regression(s):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}
