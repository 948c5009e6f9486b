package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lshjoin/internal/faultfs"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base; parent is the index of the enclosing span (-1 for a
// root) and op the id of the benchmark op that caused it (-1 for
// background work such as checkpoints).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// recorder keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use, so fan-out children can record directly.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int32) int32 {
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: t, end: -1, parent: parent, op: op})
	id := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	t := r.now()
	r.mu.Lock()
	s := &r.spans[id]
	s.end = t
	d := time.Duration(t - s.start)
	r.mu.Unlock()
	return d
}

// add records an already-timed span.
func (r *recorder) add(name string, start, end int64, parent, op int32) int32 {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	id := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

// selfTimes returns every span's duration minus the part of its interval
// that the union of its children's intervals covers. Children running in
// parallel therefore count once, and a child outliving its parent is
// clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerStats aggregates spans by name: call count, total duration and
// total self time.
type layerStats struct {
	calls         int
	totalNs, self int64
}

func aggregate(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		st.calls++
		st.totalNs += s.end - s.start
		st.self += self[i]
	}
	return out
}

// meanMs is the mean duration per call of the named span, in ms (0 when the
// layer was never called).
func meanMs(agg map[string]*layerStats, name string, selfOnly bool) float64 {
	st := agg[name]
	if st == nil || st.calls == 0 {
		return 0
	}
	ns := st.totalNs
	if selfOnly {
		ns = st.self
	}
	return float64(ns) / float64(st.calls) / 1e6
}

// writeSpans writes the spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\top")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingListener counts the bytes the accepted connections carry, in
// both directions, as seen by the shard server.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// timingFS wraps a faultfs.FS, timing syncs and counting bytes written.
// Calls on the publish path (the delta log, and the directory sync of a
// log switch) become children of the publish span the caller has set;
// the background checkpoint's calls (temp files, snapshot, MANIFEST) are
// folded into one persist.checkpoint span from the log switch that starts
// it to the directory sync that commits its MANIFEST.
type timingFS struct {
	inner     faultfs.FS
	rec       *recorder
	publish   atomic.Int32 // span id of the publish in progress, -1 if none
	publishOp atomic.Int32 // op id of that publish

	mu          sync.Mutex
	state       int // fsIdle, fsSwitching or fsCheckpoint
	ckptStart   int64
	manifestNew bool
	syncs       int64
	syncNs      int64
	writeBytes  int64
	ckpts       []int64 // durations of completed background checkpoints
}

const (
	fsIdle = iota
	fsSwitching
	fsCheckpoint
)

func newTimingFS(inner faultfs.FS, rec *recorder) *timingFS {
	t := &timingFS{inner: inner, rec: rec}
	t.publish.Store(-1)
	return t
}

// setPublish marks span id (of op) as the publish in progress; -1 clears it.
func (t *timingFS) setPublish(id, op int32) {
	t.publishOp.Store(op)
	t.publish.Store(id)
}

// reset clears the counters at the start of a measured phase.
func (t *timingFS) reset() {
	t.mu.Lock()
	t.syncs, t.syncNs, t.writeBytes, t.ckpts = 0, 0, 0, nil
	t.mu.Unlock()
}

func (t *timingFS) snapshot() (syncs, syncNs, writeBytes int64, ckpts []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syncs, t.syncNs, t.writeBytes, append([]int64(nil), t.ckpts...)
}

// timed runs fn as a sync (when isSync) or plain call and records a child
// span of the publish in progress when onPublish holds.
func (t *timingFS) timed(name string, isSync, onPublish bool, fn func() error) error {
	a := t.rec.now()
	err := fn()
	b := t.rec.now()
	if isSync {
		t.mu.Lock()
		t.syncs++
		t.syncNs += b - a
		t.mu.Unlock()
	}
	if p := t.publish.Load(); onPublish && p >= 0 {
		t.rec.add(name, a, b, p, t.publishOp.Load())
	}
	return err
}

func isLog(name string) bool { return strings.HasSuffix(name, ".log") }

func (t *timingFS) MkdirAll(dir string) error            { return t.inner.MkdirAll(dir) }
func (t *timingFS) ReadDir(dir string) ([]string, error) { return t.inner.ReadDir(dir) }
func (t *timingFS) ReadFile(name string) ([]byte, error) { return t.inner.ReadFile(name) }
func (t *timingFS) Remove(name string) error             { return t.inner.Remove(name) }

func (t *timingFS) Rename(oldpath, newpath string) error {
	err := t.inner.Rename(oldpath, newpath)
	t.mu.Lock()
	if t.state == fsCheckpoint && filepath.Base(newpath) == "MANIFEST" {
		t.manifestNew = true
	}
	t.mu.Unlock()
	return err
}

func (t *timingFS) SyncDir(dir string) error {
	t.mu.Lock()
	state := t.state
	t.mu.Unlock()
	err := t.timed("faultfs.syncdir", true, state != fsCheckpoint, func() error { return t.inner.SyncDir(dir) })
	t.mu.Lock()
	switch {
	case t.state == fsSwitching:
		t.state = fsCheckpoint // the switch is durable; the checkpoint runs next
	case t.state == fsCheckpoint && t.manifestNew:
		end := t.rec.now()
		t.ckpts = append(t.ckpts, end-t.ckptStart)
		t.rec.add("persist.checkpoint", t.ckptStart, end, -1, -1)
		t.state, t.manifestNew = fsIdle, false
	}
	t.mu.Unlock()
	return err
}

func (t *timingFS) Create(name string) (faultfs.File, error) {
	t.mu.Lock()
	if isLog(name) && t.state == fsIdle && t.publish.Load() >= 0 {
		// A new log created inside a publish is a log switch: the
		// background checkpoint it hands off starts here.
		t.state, t.ckptStart = fsSwitching, t.rec.now()
	}
	t.mu.Unlock()
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, log: isLog(name)}, nil
}

func (t *timingFS) Append(name string) (faultfs.File, error) {
	f, err := t.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t, log: isLog(name)}, nil
}

type timingFile struct {
	faultfs.File
	fs  *timingFS
	log bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	var n int
	err := f.fs.timed("faultfs.write", false, f.log, func() error {
		var err error
		n, err = f.File.Write(p)
		return err
	})
	f.fs.mu.Lock()
	f.fs.writeBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	return f.fs.timed("faultfs.sync", true, f.log, f.File.Sync)
}

// runtimeCounters reads the allocation and CPU counters of runtime/metrics.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}
