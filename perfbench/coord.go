package main

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"lshjoin"
	"lshjoin/internal/core"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/shardrpc"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// The coordinator workloads: two in-memory shard servers in this process,
// reached over loopback TCP, and one coordinator.
const (
	coordShards = 2
	coordK      = 20
	coordTables = 2
)

// Every est op but paper_eval's sweeps is the estimate vsjserve loadgen
// makes: LSH-SS with a 256/256 sample budget at τ = 0.8. Searches use the
// same threshold.
const (
	readTau    = 0.8
	readBudget = 256
)

// estimatorSource is the estimator constructor every collection type has.
type estimatorSource interface {
	Estimator(lshjoin.Algorithm, ...lshjoin.EstimatorOption) (lshjoin.Estimator, error)
}

// budgetEstimate runs one est op on src with the given seed.
func budgetEstimate(src estimatorSource, seed uint64) (float64, error) {
	e, err := src.Estimator(lshjoin.AlgoLSHSS, lshjoin.WithSampleBudget(readBudget, readBudget), lshjoin.WithEstimatorSeed(seed))
	if err != nil {
		return 0, err
	}
	return e.Estimate(readTau)
}

func coordOptions() lshjoin.Options {
	return lshjoin.Options{K: coordK, Tables: coordTables}
}

// cluster is the set of in-process shard servers.
type cluster struct {
	servers []*lshjoin.ShardServer
	errc    []chan error
	addrs   []string
	bytes   *atomic.Int64 // wire bytes, both directions, all connections
}

// startCluster starts the shard servers; their connections add the bytes
// they carry to bytes.
func startCluster(bytes *atomic.Int64) (*cluster, error) {
	c := &cluster{bytes: bytes}
	for s := 0; s < coordShards; s++ {
		srv, err := lshjoin.NewShardServer(coordOptions())
		if err != nil {
			c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(countingListener{Listener: ln, bytes: bytes}) }()
		c.servers, c.errc = append(c.servers, srv), append(c.errc, errc)
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	return c, nil
}

// close stops every server and waits for its Serve to return.
func (c *cluster) close() error {
	var first error
	for i, srv := range c.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
		if err := <-c.errc[i]; err != nil && first == nil {
			first = err
		}
	}
	c.servers, c.errc = nil, nil
	return first
}

// coordRun is the public-API side of a coordinator workload.
type coordRun struct {
	cl  *cluster
	rem *lshjoin.RemoteCollection
}

func (c *coordRun) close() error {
	if c.rem != nil {
		c.rem.Close()
	}
	if c.cl != nil {
		return c.cl.close()
	}
	return nil
}

// bootCoord starts the servers and preloads corpus through the coordinator
// in batches, logging each batch as a preload op.
func bootCoord(r *runResult, corpus []lshjoin.Vector, batch int) (*coordRun, error) {
	cl, err := startCluster(new(atomic.Int64))
	if err != nil {
		return nil, err
	}
	c := &coordRun{cl: cl}
	if c.rem, err = lshjoin.Connect(cl.addrs, lshjoin.Options{}); err != nil {
		c.close()
		return nil, err
	}
	for lo := 0; lo < len(corpus); lo += batch {
		hi := min(lo+batch, len(corpus))
		err := r.timed(opRec{kind: "preload", arg: lo, n: hi - lo, fresh: lo == 0}, func(o *opRec) error {
			var err error
			o.ids, err = c.rem.InsertBatch(corpus[lo:hi])
			return err
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return c, nil
}

// setupCoord runs the set-up once, or with repeat as often as moreSetups
// asks (setup_s is the median over every set-up of the run), keeping the
// last topology. Earlier repetitions' preloads stay in the op log, marked
// dropped, so the replay skips them.
func setupCoord(cfg config, r *runResult, corpus []lshjoin.Vector, repeat bool) (*coordRun, error) {
	for {
		n0 := len(r.log)
		var c *coordRun
		err := r.timeSetup(func() error {
			var err error
			c, err = bootCoord(r, corpus, cfg.sz.preloadBatch)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !repeat || !r.moreSetups(cfg) {
			return c, nil
		}
		for i := n0; i < len(r.log); i++ {
			r.log[i].dropped = true
		}
		if err := c.close(); err != nil {
			return nil, err
		}
	}
}

// readOp runs one est or search op through the coordinator.
func readOp(r *runResult, rem *lshjoin.RemoteCollection, rec opRec, q lshjoin.Vector) error {
	return r.timed(rec, func(o *opRec) error {
		if o.kind == "est" {
			v, err := budgetEstimate(rem, o.seed)
			o.ests = []float64{v}
			return err
		}
		var err error
		o.ids, err = rem.SearchSimilar(q, readTau)
		return err
	})
}

// runCoordIngest: a 20k-vector corpus; every step inserts the next few
// dozen unseen vectors and then reads, alternating a search for the batch's
// first vector and an estimate. Every read misses the snapshot cache.
//
// Reads slow down as the corpus grows, so each block runs on a fresh
// topology preloaded with the same corpus: every block grows the corpus by
// the same amount, and the median over them is not the middle of a trend.
// Each preload is a set-up, so the set-ups are spread over the run with the
// blocks; the last block repeats its set-up while moreSetups asks for more.
// The fixed step count matters too: a time-bounded loop would grow the
// corpus further on a faster host and read a bigger one.
func runCoordIngest(cfg config, in *inputs) (*runResult, error) {
	r := newResult()
	B := cfg.sz.ingestBatch
	steps := ingestSteps(cfg)
	nb := blocksFor(cfg.sz, steps/2)
	var c *coordRun // the current block's topology
	closeTopo := func() error {
		if c == nil {
			return nil
		}
		err := c.close()
		c = nil
		return err
	}
	defer closeTopo()
	// boot replaces the previous block's topology and runs the warm-up
	// reads on the new one; the first read fetches every shard.
	boot := func(b int) error {
		if err := closeTopo(); err != nil {
			return err
		}
		var err error
		if c, err = setupCoord(cfg, r, in.corpus, b == nb-1); err != nil {
			return err
		}
		for i := 0; i < 2*cfg.sz.warmOps; i++ {
			o := opRec{kind: "est", warm: true, seed: opSeed(in.seed, streamWarm, i)}
			if i%2 == 1 {
				o = opRec{kind: "search", warm: true, arg: pick(in.seed, streamWarm, i, len(in.corpus))}
			}
			if err := readOp(r, c.rem, o, in.corpus[o.arg]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	err := r.loop(steps, nb, boot, func(j int) {
		lo := j * B
		var ids []int
		r.timed(opRec{kind: "insert", arg: lo, n: B, pool: true}, func(o *opRec) error {
			var err error
			o.ids, err = c.rem.InsertBatch(in.pool[lo : lo+B])
			ids = o.ids
			return err
		})
		if j%2 == 0 {
			readOp(r, c.rem, opRec{kind: "search", arg: lo, pool: true}, in.pool[lo])
			if len(ids) > 0 && !slices.Contains(r.log[len(r.log)-1].ids, ids[0]) {
				r.failf("coord_ingest: step %d: search did not return the inserted vector's id %d", j, ids[0])
			}
		} else {
			readOp(r, c.rem, opRec{kind: "est", seed: opSeed(in.seed, streamEst, j)}, lshjoin.Vector{})
		}
	})
	if err != nil {
		return nil, err
	}
	// The final state's estimate, checked against an in-process collection
	// fed the same batches.
	final := opRec{kind: "est", warm: true, seed: opSeed(in.seed, streamCheck, 0)}
	if err := readOp(r, c.rem, final, lshjoin.Vector{}); err != nil {
		return nil, fmt.Errorf("final estimate: %w", err)
	}
	r.heapMB = liveHeapMB()
	if err := closeTopo(); err != nil {
		return nil, err
	}
	r.finish()
	checkCoordIngest(r, in, steps, B)
	return r, nil
}

// ingestStepRate is coord_ingest's steps per second of run length: about
// the rate the loop runs at on a 2-vCPU VM, so a run at --seconds 30 takes
// 900 steps, four blocks each with over 100 samples of either read class.
const ingestStepRate = 30

// ingestSteps is the fixed step count of a coord_ingest run, enough for
// minOps samples of each read class in a block.
func ingestSteps(cfg config) int {
	return opCount(cfg, ingestStepRate, 2*cfg.sz.minOps)
}

// checkCoordIngest feeds every block's batches to an in-process
// ShardedCollection over the same corpus, publishing where the
// coordinator's reads publish: each must assign the same ids, and the last
// block's must give the final state's estimate bit for bit.
func checkCoordIngest(r *runResult, in *inputs, steps, B int) {
	opt := coordOptions()
	opt.Shards = coordShards
	var sc *lshjoin.ShardedCollection
	block, n := -1, 0
	for _, o := range r.log {
		if o.kind != "insert" {
			continue
		}
		if o.block != block {
			var err error
			if sc, err = lshjoin.NewSharded(in.corpus, opt); err != nil {
				r.failf("coord_ingest: NewSharded: %v", err)
				return
			}
			block = o.block
		}
		ids := sc.InsertBatch(in.pool[o.arg : o.arg+B])
		sc.N() // publish, as the coordinator's next read does on every shard
		if !slices.Equal(ids, o.ids) {
			r.failf("coord_ingest: step %d: in-process ids differ from the coordinator's", o.arg/B)
			return
		}
		n++
	}
	if n != steps || sc == nil {
		r.failf("coord_ingest: %d insert records for %d steps", n, steps)
		return
	}
	final := r.log[len(r.log)-1]
	v, err := budgetEstimate(sc, final.seed)
	if err != nil || !sameFloats([]float64{v}, final.ests) {
		r.failf("coord_ingest: final in-process estimate %v (%v), coordinator %v", v, err, final.ests)
	}
}

// tracedCoord replays coordinator ops through the layers' exported entry
// points, in the order RemoteCollection calls them, recording a span
// around each call.
type tracedCoord struct {
	rec     *recorder
	clients []*shardrpc.Client
	snaps   []*lsh.Snapshot // the coordinator's snapshot cache
	st      *coordCounts
}

// coordCounts are the replay's counters, kept across the fresh topologies
// of coord_ingest's blocks.
type coordCounts struct {
	bytes               atomic.Int64 // wire bytes, from the servers' listeners
	snapCalls, notMod   atomic.Int64
	candidates, results int
}

func dialTraced(rec *recorder, st *coordCounts, addrs []string) (*tracedCoord, error) {
	t := &tracedCoord{rec: rec, st: st, snaps: make([]*lsh.Snapshot, len(addrs))}
	for _, a := range addrs {
		c, err := shardrpc.Dial(a, shardrpc.ClientOptions{})
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, c)
	}
	return t, nil
}

func (t *tracedCoord) close() {
	for _, c := range t.clients {
		c.Close()
	}
}

// capture mirrors RemoteCollection.capture: parallel snapshot fetches with
// the not-modified fast path, decode of changed shards, reassembly.
func (t *tracedCoord) capture(parent, op int32) (*lsh.GroupSnapshot, error) {
	sp := t.rec.begin("lshjoin.capture", parent, op)
	defer t.rec.end(sp)
	S := len(t.clients)
	snaps := make([]*lsh.Snapshot, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			have := t.snaps[s]
			haveVer := uint64(0)
			if have != nil {
				haveVer = have.Version()
			}
			c := t.rec.begin("shardrpc.snapshot", sp, op)
			version, blob, notMod, err := t.clients[s].Snapshot(haveVer)
			t.rec.end(c)
			t.st.snapCalls.Add(1)
			switch {
			case err != nil:
				errs[s] = err
			case notMod:
				t.st.notMod.Add(1)
				if have == nil || version != haveVer {
					errs[s] = fmt.Errorf("not-modified for version %d we do not hold", version)
				}
				snaps[s] = have
			default:
				d := t.rec.begin("persist.decode", sp, op)
				idx, err := persist.DecodeSnapshot(blob)
				t.rec.end(d)
				if err != nil {
					errs[s] = err
					return
				}
				snaps[s] = idx.Current()
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for s, snap := range snaps {
		if t.snaps[s] == nil || snap.Version() > t.snaps[s].Version() {
			t.snaps[s] = snap
		}
	}
	g := t.rec.begin("lsh.group", sp, op)
	gs, err := lsh.NewGroupSnapshot(snaps)
	t.rec.end(g)
	return gs, err
}

func (t *tracedCoord) est(seed uint64, parent, op int32) (core.Detail, int, error) {
	gs, err := t.capture(parent, op)
	if err != nil {
		return core.Detail{}, 0, err
	}
	return tracedEstimate(t.rec, gs, readTau, seed, parent, op, core.WithSampleSizes(readBudget, readBudget))
}

func (t *tracedCoord) search(v lshjoin.Vector, parent, op int32) ([]int, error) {
	gs, err := t.capture(parent, op)
	if err != nil {
		return nil, err
	}
	var out []int
	for s := 0; s < gs.S(); s++ {
		ids := tracedSearch(t.rec, gs.Snap(s), v, readTau, parent, op, &t.st.candidates, &t.st.results)
		for _, id := range ids {
			out = append(out, int(lsh.GroupID(s, int(id))))
		}
	}
	return out, nil
}

// insert mirrors RemoteCollection.InsertBatch at S > 1: route, one Ingest
// per shard holding part of the batch, ids in batch order.
func (t *tracedCoord) insert(vs []lshjoin.Vector, parent, op int32) ([]int, error) {
	S := len(t.clients)
	parts := make([][]lshjoin.Vector, S)
	home := make([]int, len(vs))
	for i, v := range vs {
		s := lsh.RouteVector(v, S)
		home[i] = s
		parts[s] = append(parts[s], v)
	}
	next := make([]int, S)
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		sp := t.rec.begin("shardrpc.ingest", parent, op)
		f, _, err := t.clients[s].Ingest(part)
		t.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		next[s] = f
	}
	ids := make([]int, len(vs))
	for i, s := range home {
		ids[i] = int(lsh.GroupID(s, next[s]))
		next[s]++
	}
	return ids, nil
}

// tracedEstimate builds merged LSH-SS over gs and runs Algorithm 1 once,
// as buildEstimator and the seeded estimator do. It returns the estimate's
// internals and m_H.
func tracedEstimate(rec *recorder, gs *lsh.GroupSnapshot, tau float64, seed uint64, parent, op int32, opts ...core.LSHSSOption) (core.Detail, int, error) {
	st := rec.begin("core.stratum", parent, op)
	e, err := core.NewMergedLSHSS(gs, vecmath.Cosine, opts...)
	rec.end(st)
	if err != nil {
		return core.Detail{}, 0, err
	}
	sm := rec.begin("core.sample", parent, op)
	d, err := e.EstimateDetailed(tau, xrand.New(seed))
	rec.end(sm)
	m, _, _, _, _ := e.Params()
	return d, m, err
}

// tracedSearch runs Snapshot.Search on one snapshot; the candidate count
// for the yield comes from a separate Query outside the span.
func tracedSearch(rec *recorder, snap *lsh.Snapshot, v lshjoin.Vector, tau float64, parent, op int32, candidates, results *int) []int32 {
	*candidates += len(snap.Query(v))
	sp := rec.begin("lsh.search", parent, op)
	ids := snap.Search(v, tau)
	rec.end(sp)
	*results += len(ids)
	return ids
}

// replayCoord replays a coordinator workload's op log, starting a fresh
// topology wherever the run started one.
func replayCoord(_ config, in *inputs, pub *runResult) (*traceResult, error) {
	rec, tr := newRecorder(), newTrace()
	st := &coordCounts{}
	var cl *cluster
	var t *tracedCoord
	stop := func() {
		if t != nil {
			t.close()
		}
		if cl != nil {
			cl.close()
		}
		cl, t = nil, nil
	}
	defer stop()
	do := func(o opRec, parent, op int32) ([]float64, []int, error) {
		if o.fresh {
			stop()
			var err error
			if cl, err = startCluster(&st.bytes); err != nil {
				return nil, nil, err
			}
			if t, err = dialTraced(rec, st, cl.addrs); err != nil {
				return nil, nil, err
			}
		}
		if t == nil {
			return nil, nil, fmt.Errorf("op before the first topology")
		}
		switch o.kind {
		case "est":
			d, m, err := t.est(o.seed, parent, op)
			if err != nil {
				return nil, nil, err
			}
			tr.addDetail(o, d, m)
			return []float64{d.Estimate}, nil, nil
		case "search":
			ids, err := t.search(in.vectors(o)[0], parent, op)
			return nil, ids, err
		default: // insert or preload
			ids, err := t.insert(in.vectors(o), parent, op)
			return nil, ids, err
		}
	}
	// The counters are summed over the loop's blocks, leaving out the
	// set-up and warm-up between them.
	var bytes0, calls0, notMod0, bytes, calls, notMod int64
	var cand0, res0, cand, res int
	replayLog(pub, rec, tr, do, func() {
		bytes0, calls0, notMod0 = st.bytes.Load(), st.snapCalls.Load(), st.notMod.Load()
		cand0, res0 = st.candidates, st.results
	}, func() {
		bytes += st.bytes.Load() - bytes0
		calls += st.snapCalls.Load() - calls0
		notMod += st.notMod.Load() - notMod0
		cand += st.candidates - cand0
		res += st.results - res0
	})
	tr.values["shardrpc.bytes_per_op"] = float64(bytes) / float64(max(pub.loopOps, 1))
	if calls > 0 {
		tr.values["shardrpc.notmod_ratio"] = float64(notMod) / float64(calls)
	}
	if cand > 0 {
		tr.values["lsh.search_yield"] = float64(res) / float64(cand)
	}
	tr.finish(pub)
	return tr, nil
}
