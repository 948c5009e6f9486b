package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"lshjoin"
	"lshjoin/internal/core"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
)

// buildCrashState leaves in dir the store a crash would: a checkpoint of
// base plus an uncheckpointed delta log of one publish per vector of
// delta. It is built with lsh and persist on an in-memory filesystem and
// copied out byte for byte, so no real fsync is paid for the set-up;
// persist.Store.Close does not checkpoint.
func buildCrashState(dir string, base, delta []lshjoin.Vector) error {
	mem := faultfs.NewMem()
	const memDir = "/store"
	idx, err := lsh.BuildSigned(base, lsh.NewSimHash(1), 20, 1, lsh.SignConfig{})
	if err != nil {
		return err
	}
	st, err := persist.Create(mem, memDir, idx)
	if err != nil {
		return err
	}
	for _, v := range delta {
		idx.Insert(v)
		idx.Snapshot()
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names, err := mem.ReadDir(memDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := mem.ReadFile(filepath.Join(memDir, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// snapFiles lists the checkpoint files in a store directory.
func snapFiles(dir string) []string {
	ents, _ := os.ReadDir(dir)
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".lsnap") {
			out = append(out, e.Name())
		}
	}
	return out
}

func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// durableInsertRate is durable_ingest's inserts per second of run length,
// about the rate the loop runs at on a 2-vCPU VM with the store on its
// disk. A run takes at least sz.durableInserts, so that a background
// checkpoint starts and completes inside the loop: at the default
// CheckpointBytes the log crosses it near insert 33,000 and the checkpoint
// takes about 0.1 s.
const durableInsertRate = 2200

// durableChunks is the fixed number of loop steps of a durable_ingest run:
// each step is sz.durableChunk inserts and then a burst of reads.
func durableChunks(cfg config) int {
	return opCount(cfg, durableInsertRate, cfg.sz.durableInserts) / cfg.sz.durableChunk
}

// runDurable: recovery of a crashed store, then single durable inserts,
// each published and fsynced before it returns, across at least one
// background checkpoint. After every chunk of inserts a burst of estimates
// and searches reads the state so far, so the est and search classes are
// sampled across the whole loop, as the inserts are.
//
// The loop is a single block. Insert latency follows the store's cycle of
// delta merges and its checkpoint, so parts of the loop are not replicates
// of one another, and a median over them moved more from run to run than
// the whole loop's numbers did (DESIGN.md, steadiness record).
func runDurable(cfg config, in *inputs) (*runResult, error) {
	r := newResult()
	nBase := cfg.sz.durableBase
	work, err := os.MkdirTemp(cfg.workdir, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r.fsType = fsType(work)
	crash := filepath.Join(work, "crash")
	if err := buildCrashState(crash, in.corpus[:nBase], in.corpus[nBase:]); err != nil {
		return nil, fmt.Errorf("crash state: %w", err)
	}
	var c *lshjoin.Collection
	var dir string
	opt := lshjoin.Options{PublishEvery: 1, CheckpointBytes: cfg.sz.checkpoint}
	for rep := 0; ; rep++ {
		dir = filepath.Join(work, fmt.Sprintf("store-%d", rep))
		if err := copyDir(crash, dir); err != nil {
			return nil, err
		}
		err := r.timeSetup(func() error {
			var err error
			c, err = lshjoin.Open(dir, opt)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		if !r.moreSetups(cfg) {
			break
		}
		if err := c.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	held := len(in.corpus)
	if n := c.N(); n != held {
		return nil, fmt.Errorf("recovery holds %d vectors, want %d", n, held)
	}
	next := 0 // pool index of the next insert; the inserts before it are acknowledged
	insert := func(warm bool) {
		i := next
		next++
		r.timed(opRec{kind: "insert", warm: warm, arg: i, n: 1, pool: true}, func(o *opRec) error {
			o.ids = []int{c.Insert(in.pool[i])}
			if want := held + i; o.ids[0] != want {
				r.failf("durable_ingest: Insert returned id %d, want %d", o.ids[0], want)
			}
			return nil
		})
	}
	// reads is burst j: estimates, then searches that must find
	// acknowledged inserts.
	reads := func(j int, warm bool) {
		stream := streamEst
		if warm {
			stream = streamWarm
		}
		E, S := cfg.sz.durableEsts, cfg.sz.durableSearches
		for k := 0; k < E; k++ {
			r.timed(opRec{kind: "est", warm: warm, seed: opSeed(in.seed, stream, j*E+k)}, func(o *opRec) error {
				v, err := budgetEstimate(c, o.seed)
				o.ests = []float64{v}
				return err
			})
		}
		acked := next
		for k := 0; k < S; k++ {
			q := pick(in.seed, stream, j*S+k, acked)
			r.timed(opRec{kind: "search", warm: warm, arg: q, pool: true}, func(o *opRec) error {
				o.ids = c.SearchSimilar(in.pool[q], readTau)
				if !slices.Contains(o.ids, held+q) {
					r.failf("durable_ingest: search for acknowledged insert %d did not return it", held+q)
				}
				return nil
			})
		}
	}
	for i := 0; i < cfg.sz.warmOps; i++ {
		insert(true)
	}
	reads(0, true)
	snaps0 := snapFiles(dir)
	chunks := durableChunks(cfg)
	err = r.loop(chunks, 1, nil, func(j int) {
		for k := 0; k < cfg.sz.durableChunk; k++ {
			insert(false)
		}
		reads(j, false)
	})
	if err != nil {
		return nil, err
	}
	if slices.Equal(snapFiles(dir), snaps0) {
		r.failf("durable_ingest: no background checkpoint completed during %d inserts", chunks*cfg.sz.durableChunk)
	}
	acked := next
	r.heapMB = liveHeapMB()
	r.finish()
	closed = true
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	total := held + acked
	r.report = append(r.report, metric{name: "disk_bytes_per_vec", unit: "B", value: float64(dirBytes(dir)) / float64(total), note: fmt.Sprintf("%d vectors after Close", total)})
	ins := r.classes["insert"].lat
	if p99, err := percentile(ins, 0.99); err != nil {
		r.failf("durable_ingest: insert_p99_ms: %v", err)
	} else {
		r.report = append(r.report, metric{name: "insert_p99_ms", unit: "ms", value: p99, note: fmt.Sprintf("n=%d", len(ins))})
	}
	// Every acknowledged insert survives a reopen.
	c2, err := lshjoin.Open(dir, lshjoin.Options{})
	if err != nil {
		r.failf("durable_ingest: reopen: %v", err)
		return r, nil
	}
	if n := c2.N(); n != total {
		r.failf("durable_ingest: reopen holds %d vectors, acknowledged %d", n, total)
	} else if got, want := c2.Vector(total-1), in.pool[acked-1]; !slices.Equal(got.Entries(), want.Entries()) {
		r.failf("durable_ingest: reopen's last vector differs from the last acknowledged insert")
	}
	if err := c2.Close(); err != nil {
		r.failf("durable_ingest: close after reopen: %v", err)
	}
	return r, nil
}

// replayDurable replays the run on a fresh copy of the same crash state:
// persist.Open over a timing wrapper of faultfs.OS, then Index.Insert and
// Index.Snapshot per insert, as Collection.Insert with PublishEvery 1.
func replayDurable(cfg config, in *inputs, pub *runResult) (*traceResult, error) {
	rec, tr := newRecorder(), newTrace()
	nBase := cfg.sz.durableBase
	work, err := os.MkdirTemp(cfg.workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "store")
	if err := buildCrashState(dir, in.corpus[:nBase], in.corpus[nBase:]); err != nil {
		return nil, err
	}
	snaps := snapFiles(dir)
	if len(snaps) != 1 {
		return nil, fmt.Errorf("crash state holds %d checkpoints", len(snaps))
	}
	blob, err := os.ReadFile(filepath.Join(dir, snaps[0]))
	if err != nil {
		return nil, err
	}
	sp := rec.begin("persist.ckpt_decode", -1, -1)
	_, err = persist.DecodeSnapshot(blob)
	tr.values["persist.ckpt_decode_s"] = rec.end(sp).Seconds()
	if err != nil {
		return nil, err
	}
	fsys := newTimingFS(faultfs.OS{}, rec)
	sp = rec.begin("persist.open", -1, -1)
	idx, st, err := persist.Open(fsys, dir)
	tr.values["persist.open_s"] = rec.end(sp).Seconds()
	if err != nil {
		return nil, err
	}
	if cfg.sz.checkpoint > 0 {
		st.SetCheckpointBytes(cfg.sz.checkpoint) // as Options.CheckpointBytes does
	}
	stClosed := false
	defer func() {
		if !stClosed {
			st.Close()
		}
	}()
	var cand, res int
	do := func(o opRec, parent, op int32) ([]float64, []int, error) {
		switch o.kind {
		case "insert":
			sp := rec.begin("lsh.insert", parent, op)
			id := idx.Insert(in.pool[o.arg])
			rec.end(sp)
			pp := rec.begin("lsh.publish", parent, op)
			fsys.setPublish(pp, op)
			idx.Snapshot()
			fsys.setPublish(-1, -1)
			rec.end(pp)
			return nil, []int{id}, nil
		case "est":
			d, m, err := tracedEstimate(rec, lsh.SingleSnapshot(idx.Snapshot()), readTau, o.seed, parent, op, core.WithSampleSizes(readBudget, readBudget))
			tr.addDetail(o, d, m)
			return []float64{d.Estimate}, nil, err
		default:
			return nil, ints(tracedSearch(rec, idx.Snapshot(), in.pool[o.arg], readTau, parent, op, &cand, &res)), nil
		}
	}
	// The loop's blocks follow one another, so the counters are read over
	// the whole loop: from the first block's start to the last one's end.
	var syncs, syncNs, wb int64
	blocks := 0
	replayLog(pub, rec, tr, do, func() {
		if blocks == 0 {
			fsys.reset()
		}
	}, func() {
		if blocks++; blocks == len(pub.blocks) {
			syncs, syncNs, wb, _ = fsys.snapshot()
		}
	})
	inserts := max(pub.loopCount("insert"), 1)
	tr.values["faultfs.syncs_per_insert"] = float64(syncs) / float64(inserts)
	if syncs > 0 {
		tr.values["faultfs.sync_us"] = float64(syncNs) / float64(syncs) / 1e3
	}
	tr.values["faultfs.write_bytes_per_insert"] = float64(wb) / float64(inserts)
	if cand > 0 {
		tr.values["lsh.search_yield"] = float64(res) / float64(cand)
	}
	// Closing drains the background checkpointer, so every checkpoint the
	// loop started is counted.
	stClosed = true
	if err := st.Close(); err != nil {
		return nil, err
	}
	_, _, _, ckpts := fsys.snapshot()
	tr.values["persist.checkpoints"] = float64(len(ckpts))
	if len(ckpts) > 0 {
		var sum int64
		for _, d := range ckpts {
			sum += d
		}
		tr.values["persist.checkpoint_ms"] = float64(sum) / float64(len(ckpts)) / 1e6
	}
	tr.finish(pub)
	return tr, nil
}

func ints(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
