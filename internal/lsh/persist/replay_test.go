package persist

import (
	"errors"
	"path/filepath"
	"testing"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// Damage planted in a crash image before recovery. The first three are
// defects a real store never writes, which both recoveries must refuse
// with ErrCorrupt; the last builds a chain both must accept.
const (
	damageNone        = iota
	damageIDGap       // the live log's first insert or batch skips an id
	damageSkipVersion // the live log's first marker skips a version
	damageEmptyMarker // a marker follows the live log's first one with nothing between
	damageSealedTail  // the live log's first record moves behind the sealed link's last marker
)

// replayCheckpointBytes makes a store switch logs every few publishes (an
// insert record of two dimensions takes 21 bytes, a marker 10).
const replayCheckpointBytes = 64

// FuzzReplayMatchesStepwise proves that recovering a delta-log chain as one
// catch-up recovers what replaying it publish by publish recovers. A store
// on MemFS with a small CheckpointBytes logs random single inserts, batches
// and publishes, switching logs as it goes. Some publishes hold the
// background checkpointer back, so its commit lands behind later records,
// or has not landed at the crash and leaves a sealed link before the live
// log. The crash image's live log is cut at a random byte, so some runs end
// in records with no marker. Open must then agree with stepwiseOpen, the
// replay this package ran before: both refuse with ErrCorrupt, or both
// recover the same snapshot (SamplePair draws included), pending count and
// durable version, and publish the same version from the pending tail.
//
// Byte layout: data[0] picks the configuration (bits 0–1) and the damage
// (bits 2–4, values past damageSealedTail plant none); data[1] is the
// number of bytes cut off the live log's end; every following byte is one
// vector over a small dimension alphabet (bits 0–4), joining the open
// batch (bit 5) or inserted alone, then published (bit 6). A publish with
// bit 7 holds the background commit back until a publish without it.
func FuzzReplayMatchesStepwise(f *testing.F) {
	f.Add([]byte{0x00, 3, 0x41, 0x42, 0x43, 0x04, 0x45})
	f.Add([]byte{0x01, 0, 0x41, 0x42, 0x43, 0xC4, 0xC5, 0xC6, 0xC7, 0x08})
	f.Add([]byte{0x02, 3, 0xC1, 0xC2, 0xC3, 0x44, 0x25, 0x66, 0x47, 0x08})
	f.Add([]byte{0x03, 15, 0xA1, 0x22, 0xE3, 0xC4, 0x25, 0x26, 0x27})
	// Refused on both sides: an id gap, a skipped version, and a marker with
	// no record since the previous one.
	f.Add([]byte{damageIDGap << 2, 0, 0x41, 0x02, 0x43, 0x24, 0x65})
	f.Add([]byte{damageSkipVersion<<2 | 1, 0, 0x41, 0x42, 0x43, 0x44, 0x45})
	f.Add([]byte{damageEmptyMarker<<2 | 2, 0, 0x41, 0x42, 0x43, 0x44, 0x45})
	// Recovered equally: a sealed link with a record after its last
	// marker, then a live link whose ids continue.
	f.Add([]byte{damageSealedTail<<2 | 3, 0, 0xC1, 0xC2, 0xC3, 0xC4, 0x05, 0xC6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := roundtripConfigs[data[0]&3]
		damage, drop, ops := int(data[0]>>2&7), int(data[1]), data[2:]
		if len(ops) > 96 {
			ops = ops[:96]
		}
		files, live := replayCrashImage(t, cfg.family, cfg.k, cfg.ell, ops)
		planted := damageImage(files, live, damage)
		name := walName(live)
		files[name] = files[name][:max(len(files[name])-drop, 0)]

		got, st, gotErr := Open(mountImage(t, files), "db")
		want, wantDurable, wantErr := stepwiseOpen(mountImage(t, files), "db")
		if planted && drop == 0 && (gotErr == nil) != (damage == damageSealedTail) {
			t.Fatalf("%s: damage %d: Open = %v", cfg.name, damage, gotErr)
		}
		if gotErr != nil || wantErr != nil {
			if !errors.Is(gotErr, ErrCorrupt) || !errors.Is(wantErr, ErrCorrupt) {
				t.Fatalf("%s: Open = %v, stepwise replay = %v; want both ErrCorrupt or both nil", cfg.name, gotErr, wantErr)
			}
			return
		}
		defer st.Close()
		snapshotsEqual(t, want.Current(), got.Current(), uint64(len(ops)))
		if got.Pending() != want.Pending() {
			t.Fatalf("%s: %d pending, stepwise replay %d", cfg.name, got.Pending(), want.Pending())
		}
		if st.DurableVersion() != wantDurable {
			t.Fatalf("%s: durable version %d, stepwise replay %d", cfg.name, st.DurableVersion(), wantDurable)
		}
		snapshotsEqual(t, want.Snapshot(), got.Snapshot(), uint64(len(ops))+1)
	})
}

// replayCrashImage runs the fuzz workload on a fresh store and returns its
// files as a crash leaves them — a held background commit has not landed —
// with the base version of the live log.
func replayCrashImage(t *testing.T, family lsh.Family, k, ell int, ops []byte) (map[string][]byte, uint64) {
	t.Helper()
	fsys := faultfs.NewMem()
	idx, err := lsh.Build(testData(6, 191), family, k, ell)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCheckpointBytes(replayCheckpointBytes)
	var batch []vecmath.Vector
	flush := func() {
		if len(batch) > 0 {
			idx.InsertBatch(batch)
			batch = nil
		}
	}
	held := false // ckptMu is held: a signaled commit waits
	for _, b := range ops {
		v := vecmath.FromDims([]uint32{uint32(b & 7), uint32(b>>3&3) + 8})
		if b&0x20 != 0 {
			batch = append(batch, v)
		} else {
			flush()
			idx.Insert(v)
		}
		if b&0x40 == 0 {
			continue
		}
		flush()
		if b&0x80 != 0 && !held {
			st.ckptMu.Lock()
			held = true
		}
		idx.Snapshot()
		if held && b&0x80 == 0 {
			st.ckptMu.Unlock()
			held = false
		}
		if !held {
			awaitCheckpointer(st) // the file system sees one op sequence per input
		}
	}
	flush()
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	names, err := fsys.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if files[name], err = fsys.ReadFile(filepath.Join("db", name)); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	live := st.walBase
	st.mu.Unlock()
	if held {
		st.ckptMu.Unlock()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return files, live
}

// damageImage plants damage in the log chain of a crash image and reports
// whether the image had the records it needed.
func damageImage(files map[string][]byte, live uint64, damage int) bool {
	recs, _, err := scanWAL(files[walName(live)], live)
	if err != nil {
		return false
	}
	first := func(marker bool) int {
		for i, r := range recs {
			if (r.kind == recPublish) == marker {
				return i
			}
		}
		return -1
	}
	// bumpMarkers shifts the versions of the markers from i on, so a
	// planted defect is the only one.
	bumpMarkers := func(i int) {
		for ; i < len(recs); i++ {
			if recs[i].kind == recPublish {
				recs[i].version++
			}
		}
	}
	switch damage {
	case damageIDGap:
		i := first(false)
		if i < 0 {
			return false
		}
		recs[i].id++
	case damageSkipVersion:
		i := first(true)
		if i < 0 {
			return false
		}
		bumpMarkers(i)
	case damageEmptyMarker:
		i := first(true)
		if i < 0 {
			return false
		}
		bumpMarkers(i + 1)
		recs = append(recs[:i+1], append([]walRec{{kind: recPublish, version: recs[i].version + 1}}, recs[i+1:]...)...)
	case damageSealedTail:
		// The sealed link is the chain's link before the live log: the
		// log with the largest base below it.
		var sealed uint64
		found := false
		for name := range files {
			if b, ok := walBaseFromName(name); ok && b < live && (!found || b > sealed) {
				sealed, found = b, true
			}
		}
		if !found || len(recs) == 0 || recs[0].kind == recPublish {
			return false
		}
		srecs, _, err := scanWAL(files[walName(sealed)], sealed)
		if err != nil {
			return false
		}
		files[walName(sealed)] = encodeLog(sealed, append(srecs, recs[0]))
		recs = recs[1:]
	default:
		return false
	}
	files[walName(live)] = encodeLog(live, recs)
	return true
}

// encodeLog frames records as the store writes them.
func encodeLog(base uint64, recs []walRec) []byte {
	buf := appendWalHeader(nil, base)
	for _, r := range recs {
		switch r.kind {
		case recInsert:
			buf = appendInsertRec(buf, r.id, r.vecs[0])
		case recBatch:
			buf = appendBatchRec(buf, r.id, r.vecs)
		default:
			buf = appendPublishRec(buf, r.version)
		}
	}
	return buf
}

// mountImage writes a crash image's files into a fresh store directory.
func mountImage(t *testing.T, files map[string][]byte) *faultfs.MemFS {
	t.Helper()
	fsys := faultfs.NewMem()
	if err := fsys.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		writeRaw(t, fsys, filepath.Join("db", name), data)
	}
	return fsys
}

// stepwiseOpen is the recovery Open ran before it applied a delta-log chain
// as one catch-up, kept as the oracle: the same chain walk and checks, but
// every logged insert is re-inserted and every marker is its own publish.
// It leaves out only the write side — rewriting a torn live tail and
// reopening it for append — which cannot change what is recovered.
func stepwiseOpen(fsys faultfs.FS, dir string) (*lsh.Index, uint64, error) {
	mdata, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, 0, err
	}
	v, err := decodeManifest(mdata)
	if err != nil {
		return nil, 0, err
	}
	blob, err := fsys.ReadFile(filepath.Join(dir, snapName(v)))
	if err != nil {
		return nil, 0, corrupt("persist: manifest names version %d but its snapshot is unreadable (%v)", v, err)
	}
	idx, err := decodeSnapshot(blob)
	if err != nil {
		return nil, 0, err
	}
	if got := idx.Current().Version(); got != v {
		return nil, 0, corrupt("persist: snapshot file carries version %d, manifest %d", got, v)
	}
	durable := v
	for base := v; ; {
		wdata, err := fsys.ReadFile(filepath.Join(dir, walName(base)))
		if err != nil && !faultfs.IsNotExist(err) {
			return nil, 0, err
		}
		recs, validLen, err := scanWAL(wdata, base)
		if err != nil {
			return nil, 0, err
		}
		for _, rec := range recs {
			switch rec.kind {
			case recInsert:
				if id := idx.Insert(rec.vecs[0]); id != rec.id {
					return nil, 0, corrupt("persist: replayed insert got id %d, log says %d", id, rec.id)
				}
			case recBatch:
				if first := idx.InsertBatch(rec.vecs); first != rec.id {
					return nil, 0, corrupt("persist: replayed batch got first id %d, log says %d", first, rec.id)
				}
			case recPublish:
				if s := idx.Snapshot(); s.Version() != rec.version {
					return nil, 0, corrupt("persist: replayed publish got version %d, log says %d", s.Version(), rec.version)
				}
				durable = rec.version
			}
		}
		if durable == base {
			break
		}
		if _, err := fsys.ReadFile(filepath.Join(dir, walName(durable))); faultfs.IsNotExist(err) {
			break
		} else if err != nil {
			return nil, 0, err
		}
		if validLen < len(wdata) || len(wdata) < walHeaderLen {
			return nil, 0, corrupt("persist: sealed delta log %s has a torn tail", walName(base))
		}
		base = durable
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, name := range names {
		if b, ok := walBaseFromName(name); ok && b > durable {
			return nil, 0, corrupt("persist: delta log %s extends past recovered version %d", name, durable)
		}
	}
	return idx, durable, nil
}
