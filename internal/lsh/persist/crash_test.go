package persist

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// Crash-consistency property test: a fixed workload (build → create store →
// inserts with periodic publishes → mid-workload checkpoint → final
// checkpoint) is run once per injection point of every fault mode, the
// filesystem is crashed, and recovery must land in exactly one of two
// states:
//
//   - Open succeeds: the recovered index is deep-equal (SamplePair
//     draw-for-draw) to a version the clean run actually published, no
//     newer than the last one, and — for modes that cannot destroy synced
//     bytes — no older than the faulty run's own durable floor.
//   - Open fails: with a typed error (ErrCorrupt or ErrNotExist), only in
//     runs where the fault could have mangled durable state (bit flips) or
//     interrupted store creation itself.
//
// No run may panic, and every successful recovery must accept further
// writes and reopen again.

const (
	crashInitial = 6
	crashTotal   = 22
	crashK       = 4
	crashEll     = 2
)

func crashFamily() lsh.Family { return lsh.NewSimHash(131) }

// crashWorkload drives the recorded workload against fsys. record, when
// non-nil, captures every published snapshot by version (the shadow of the
// clean run). abortOnErr simulates a process that notices the store failure
// and exits mid-workload. Returns the store's durable floor (0 if Create
// failed) and whether the store hooks were ever installed.
func crashWorkload(data []vecmath.Vector, fsys faultfs.FS, record map[uint64]*lsh.Snapshot, abortOnErr bool) (floor uint64, created bool) {
	idx, err := lsh.Build(data[:crashInitial], crashFamily(), crashK, crashEll)
	if err != nil {
		panic(err) // in-memory build cannot fail on valid input
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		return 0, false
	}
	if record != nil {
		record[idx.Current().Version()] = idx.Current()
	}
	checkpoint := func() {
		idx.PublishAndThen(func(s *lsh.Snapshot) {
			if record != nil {
				record[s.Version()] = s
			}
			st.Checkpoint(s) // failure is sticky; recovery owns the outcome
		})
	}
	for i := crashInitial; i < crashTotal; i++ {
		idx.Insert(data[i])
		if (i-crashInitial)%3 == 2 {
			s := idx.Snapshot()
			if record != nil {
				record[s.Version()] = s
			}
		}
		if i == 14 {
			checkpoint()
		}
		if abortOnErr && st.Err() != nil {
			floor = st.DurableVersion()
			st.Close()
			return floor, true
		}
	}
	checkpoint()
	floor = st.DurableVersion()
	st.Close()
	return floor, true
}

// crashWorkloadFunc is one single-store recorded workload; crashWorkload and
// bgCrashWorkload both fit, so one runner sweeps either.
type crashWorkloadFunc func(data []vecmath.Vector, fsys faultfs.FS, record map[uint64]*lsh.Snapshot, abortOnErr bool) (floor uint64, created bool)

// crashRun is one cell of the injection matrix.
func crashRun(t *testing.T, workload crashWorkloadFunc, data []vecmath.Vector, shadow map[uint64]*lsh.Snapshot, ceiling uint64, plan faultfs.Plan, keepUnsynced, abortOnErr bool) {
	t.Helper()
	fsys := faultfs.NewMem()
	fsys.SetPlan(plan)
	floor, created := workload(data, fsys, nil, abortOnErr)
	fsys.Crash(keepUnsynced)

	lossy := plan.Mode == faultfs.ModeBitFlip
	idx, st, err := Open(fsys, "db")
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotExist) {
			t.Fatalf("recovery failed with untyped error: %v", err)
		}
		if created && !lossy {
			t.Fatalf("non-lossy mode must recover once the store exists, got %v", err)
		}
		return
	}
	v := idx.Current().Version()
	want, ok := shadow[v]
	if !ok {
		t.Fatalf("recovered version %d was never published (ceiling %d)", v, ceiling)
	}
	if v > ceiling {
		t.Fatalf("recovered version %d beyond ceiling %d", v, ceiling)
	}
	if !lossy && v < floor {
		t.Fatalf("recovered version %d below durable floor %d", v, floor)
	}
	snapshotsEqual(t, want, idx.Current(), 7001+uint64(plan.Op))

	// A recovered store must keep working: one more durable publish, then a
	// second recovery sees it.
	idx.Insert(data[0])
	next := idx.Snapshot()
	if st.Err() != nil {
		t.Fatalf("store broken after recovery: %v", st.Err())
	}
	if st.DurableVersion() != next.Version() {
		t.Fatalf("post-recovery durable = %d, want %d", st.DurableVersion(), next.Version())
	}
	st.Close()
	idx2, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	snapshotsEqual(t, next, idx2.Current(), 7501+uint64(plan.Op))
	st2.Close()
}

// crashCells is the fault-mode × crash-retention × abort matrix every
// crash-consistency sweep covers.
type crashCell struct {
	mode  faultfs.Mode
	keeps []bool // crash-retention policies to sweep
	abort bool   // also run the abort-on-error variant
}

func crashCells() []crashCell {
	return []crashCell{
		// A pure crash drops unsynced state; sweeping keep=true too checks
		// that "everything made it to media" also recovers.
		{faultfs.ModeCrash, []bool{false, true}, false},
		{faultfs.ModeErr, []bool{true}, true},
		{faultfs.ModeShortWrite, []bool{true}, true},
		{faultfs.ModeNoSpace, []bool{true}, true},
		{faultfs.ModeSyncErr, []bool{true}, true},
		{faultfs.ModeBitFlip, []bool{true}, true},
	}
}

// sweepSingleStore runs a single-store workload once per injection point of
// every fault mode and checks the recovery property each time.
func sweepSingleStore(t *testing.T, workload crashWorkloadFunc, data []vecmath.Vector) {
	// Shadow run: record every published version and count the ops the
	// clean workload performs — the sweep bound.
	shadowFS := faultfs.NewMem()
	shadow := make(map[uint64]*lsh.Snapshot)
	workload(data, shadowFS, shadow, false)
	totalOps := shadowFS.Ops()
	if totalOps < 20 {
		t.Fatalf("workload too small to be interesting: %d ops", totalOps)
	}
	var ceiling uint64
	for v := range shadow {
		if v > ceiling {
			ceiling = v
		}
	}

	for _, c := range crashCells() {
		c := c
		t.Run(c.mode.String(), func(t *testing.T) {
			for op := 1; op <= totalOps; op++ {
				for _, keep := range c.keeps {
					plan := faultfs.Plan{Op: op, Mode: c.mode}
					name := fmt.Sprintf("op%03d/keep=%v", op, keep)
					t.Run(name, func(t *testing.T) {
						crashRun(t, workload, data, shadow, ceiling, plan, keep, false)
					})
					if c.abort {
						t.Run(name+"/abort", func(t *testing.T) {
							crashRun(t, workload, data, shadow, ceiling, plan, keep, true)
						})
					}
				}
			}
		})
	}
}

// TestCrashConsistencyProperty sweeps every injection point × fault mode ×
// crash-retention policy over the recorded workload.
func TestCrashConsistencyProperty(t *testing.T) {
	sweepSingleStore(t, crashWorkload, testData(crashTotal, 211))
}

// bgCrashWorkload mirrors crashWorkload with a 1-byte checkpoint threshold
// and per-insert publication, so publishes switch to a fresh delta log and
// hand their snapshot to the background checkpointer — injected faults land
// inside log switches, background snapshot commits and sealed-log cleanup,
// not just the publish path. The workload paces the checkpointer so that
// the filesystem op sequence, and with it every injection point of the
// sweep, is the same on each run: a commit finishes before the next insert,
// except that every third one is held back (ckptMu) until one more publish
// has been appended to the live log, so commits that land behind newer log
// records are swept too. Close drains the checkpointer, so the crash always
// interrupts media state, never an in-flight goroutine.
func bgCrashWorkload(data []vecmath.Vector, fsys faultfs.FS, record map[uint64]*lsh.Snapshot, abortOnErr bool) (floor uint64, created bool) {
	idx, err := lsh.Build(data[:crashInitial], crashFamily(), crashK, crashEll)
	if err != nil {
		panic(err) // in-memory build cannot fail on valid input
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		return 0, false
	}
	st.SetCheckpointBytes(1)
	if record != nil {
		record[idx.Current().Version()] = idx.Current()
	}
	held := false // ckptMu is held: the signaled commit waits for one more publish
	for i := crashInitial; i < crashTotal; i++ {
		stall := (i-crashInitial)%3 == 0
		if stall {
			st.ckptMu.Lock()
		}
		idx.Insert(data[i])
		s := idx.Snapshot()
		if record != nil {
			record[s.Version()] = s
		}
		if held {
			st.ckptMu.Unlock()
		}
		if held = stall; !held {
			awaitCheckpointer(st)
		}
		if abortOnErr && st.Err() != nil {
			break
		}
	}
	if held {
		st.ckptMu.Unlock()
	}
	floor = st.DurableVersion()
	st.Close()
	return floor, true
}

// awaitCheckpointer returns once no background checkpoint is signaled or
// running. The checkpointer encodes before it takes ckptMu and touches the
// filesystem only after, so the publish path and the commit never interleave
// their filesystem ops under the pacing of bgCrashWorkload.
func awaitCheckpointer(st *Store) {
	for {
		st.mu.Lock()
		busy := st.rotating
		st.mu.Unlock()
		if !busy {
			return
		}
		runtime.Gosched()
	}
}

// TestCrashConsistencyBackgroundCheckpoint is the rotation-heavy sweep: the
// same recovery property must hold when faults interrupt a store that
// switches logs and checkpoints in the background on every publish.
func TestCrashConsistencyBackgroundCheckpoint(t *testing.T) {
	sweepSingleStore(t, bgCrashWorkload, testData(crashTotal, 223))
}

// Cross-store crash consistency: the same property, per (side, shard). A
// fault may land in either side's stores or the CROSS manifest itself;
// recovery must either fail typed (only when creation itself was
// interrupted or the mode is lossy) or land every shard of both sides on a
// version that side actually published, within [floor, ceiling].

const (
	xShards  = 2
	xInitial = 8 // initial vectors per side
	xTotal   = 26
)

// crossRecord is the per-(side, shard) shadow: version → published snapshot.
type crossRecord [2][]map[uint64]*lsh.Snapshot

func newCrossRecord() crossRecord {
	var r crossRecord
	for side := range r {
		r[side] = make([]map[uint64]*lsh.Snapshot, xShards)
		for s := range r[side] {
			r[side][s] = make(map[uint64]*lsh.Snapshot)
		}
	}
	return r
}

// crossCrashWorkload drives the recorded two-sided workload: create the
// cross store, alternate inserts between sides with per-shard publishes, a
// mid-workload left-side checkpoint, then final checkpoints on both sides.
func crossCrashWorkload(data []vecmath.Vector, fsys faultfs.FS, record crossRecord, abortOnErr bool) (floors [2][]uint64, created bool) {
	fam := crashFamily()
	lg, err := lsh.NewShardGroup(data[:xInitial], fam, crashK, 1, xShards)
	if err != nil {
		panic(err) // in-memory build cannot fail on valid input
	}
	rg, err := lsh.NewShardGroup(data[xInitial:2*xInitial], fam, crashK, 1, xShards)
	if err != nil {
		panic(err)
	}
	lst, rst, err := CreateCross(fsys, "xj", lg, rg)
	if err != nil {
		return floors, false
	}
	groups := [2]*lsh.ShardGroup{lg, rg}
	stores := [2][]*Store{lst, rst}
	rec := func(side, shard int, s *lsh.Snapshot) {
		if record[side] != nil {
			record[side][shard][s.Version()] = s
		}
	}
	for side := range groups {
		for s := 0; s < xShards; s++ {
			rec(side, s, groups[side].Shard(s).Current())
		}
	}
	checkpoint := func(side int) {
		for s := 0; s < xShards; s++ {
			st := stores[side][s]
			shard := s
			groups[side].Shard(s).PublishAndThen(func(snap *lsh.Snapshot) {
				rec(side, shard, snap)
				st.Checkpoint(snap) // failure is sticky; recovery owns the outcome
			})
		}
	}
	broken := func() bool {
		for side := range stores {
			for _, st := range stores[side] {
				if st.Err() != nil {
					return true
				}
			}
		}
		return false
	}
	aborted := false
	for i := 2 * xInitial; i < len(data); i++ {
		side := i % 2
		id := groups[side].Insert(data[i])
		shard, _ := lsh.SplitGroupID(id)
		if i%3 != 0 {
			rec(side, shard, groups[side].Shard(shard).Snapshot())
		}
		if i == 2*xInitial+6 {
			checkpoint(0)
		}
		if abortOnErr && broken() {
			aborted = true
			break
		}
	}
	if !aborted {
		checkpoint(0)
		checkpoint(1)
	}
	for side := range stores {
		floors[side] = make([]uint64, xShards)
		for s, st := range stores[side] {
			floors[side][s] = st.DurableVersion()
			st.Close()
		}
	}
	return floors, true
}

// crossCrashRun is one cell of the two-sided injection matrix.
func crossCrashRun(t *testing.T, data []vecmath.Vector, shadow crossRecord, ceilings [2][]uint64, plan faultfs.Plan, keepUnsynced, abortOnErr bool) {
	t.Helper()
	fsys := faultfs.NewMem()
	fsys.SetPlan(plan)
	floors, created := crossCrashWorkload(data, fsys, crossRecord{}, abortOnErr)
	fsys.Crash(keepUnsynced)

	lossy := plan.Mode == faultfs.ModeBitFlip
	lg, rg, lst, rst, meta, err := OpenCross(fsys, "xj")
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotExist) {
			t.Fatalf("recovery failed with untyped error: %v", err)
		}
		if created && !lossy {
			t.Fatalf("non-lossy mode must recover once the store exists, got %v", err)
		}
		return
	}
	groups := [2]*lsh.ShardGroup{lg, rg}
	stores := [2][]*Store{lst, rst}
	vers := [2][]uint64{meta.LeftVersions, meta.RightVersions}
	for side := range groups {
		for s := 0; s < xShards; s++ {
			v := vers[side][s]
			want, ok := shadow[side][s][v]
			if !ok {
				t.Fatalf("side %d shard %d recovered version %d was never published", side, s, v)
			}
			if v > ceilings[side][s] {
				t.Fatalf("side %d shard %d recovered version %d beyond ceiling %d", side, s, v, ceilings[side][s])
			}
			if !lossy && created && v < floors[side][s] {
				t.Fatalf("side %d shard %d recovered version %d below durable floor %d", side, s, v, floors[side][s])
			}
			snapshotsEqual(t, want, groups[side].Shard(s).Current(), 8101+uint64(plan.Op)+uint64(side*xShards+s))
		}
	}

	// Both sides must keep working: one more durable publish per side, then
	// a second recovery sees the whole pair again.
	for side := range groups {
		id := groups[side].Insert(data[side])
		shard, _ := lsh.SplitGroupID(id)
		next := groups[side].Shard(shard).Snapshot()
		st := stores[side][shard]
		if st.Err() != nil {
			t.Fatalf("side %d store broken after recovery: %v", side, st.Err())
		}
		if st.DurableVersion() != next.Version() {
			t.Fatalf("side %d post-recovery durable = %d, want %d", side, st.DurableVersion(), next.Version())
		}
	}
	for side := range stores {
		for _, st := range stores[side] {
			st.Close()
		}
	}
	_, _, lst2, rst2, _, err := OpenCross(fsys, "xj")
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	for _, st := range append(lst2, rst2...) {
		st.Close()
	}
}

// TestCrossCrashConsistencyProperty sweeps every injection point × fault
// mode × crash-retention policy over the two-sided workload.
func TestCrossCrashConsistencyProperty(t *testing.T) {
	data := testData(xTotal, 307)

	shadowFS := faultfs.NewMem()
	shadow := newCrossRecord()
	crossCrashWorkload(data, shadowFS, shadow, false)
	totalOps := shadowFS.Ops()
	if totalOps < 30 {
		t.Fatalf("workload too small to be interesting: %d ops", totalOps)
	}
	var ceilings [2][]uint64
	for side := range shadow {
		ceilings[side] = make([]uint64, xShards)
		for s := range shadow[side] {
			for v := range shadow[side][s] {
				if v > ceilings[side][s] {
					ceilings[side][s] = v
				}
			}
		}
	}

	for _, c := range crashCells() {
		c := c
		t.Run(c.mode.String(), func(t *testing.T) {
			for op := 1; op <= totalOps; op++ {
				for _, keep := range c.keeps {
					plan := faultfs.Plan{Op: op, Mode: c.mode}
					name := fmt.Sprintf("op%03d/keep=%v", op, keep)
					t.Run(name, func(t *testing.T) {
						crossCrashRun(t, data, shadow, ceilings, plan, keep, false)
					})
					if c.abort {
						t.Run(name+"/abort", func(t *testing.T) {
							crossCrashRun(t, data, shadow, ceilings, plan, keep, true)
						})
					}
				}
			}
		})
	}
}
