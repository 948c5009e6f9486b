package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"lshjoin"
)

// config is one benchmark run.
type config struct {
	seed    uint64
	dur     time.Duration // length of the measured closed loop
	trace   bool
	workdir string // scratch space for durable stores
	sz      sizes
}

// opRec is one op of a run: what it asked and what the program answered.
// The traced replay walks the same records and must reproduce every answer
// bit for bit.
type opRec struct {
	kind    string    // est, search, insert, or preload (set-up inserts that are no class)
	warm    bool      // run before the clock; replayed but not timed
	arg     int       // query index, first pool/corpus index of an insert, or sweep number
	n       int       // vectors inserted
	pool    bool      // vectors come from the inputs' pool, not the corpus
	seed    uint64    // estimator seed (a sweep derives one per threshold)
	ests    []float64 // estimates returned
	ids     []int     // ids returned by a search or an insert
	ms      float64   // latency
	block   int       // the loop block the op ran in
	fresh   bool      // first op on a new topology: the replay starts a fresh one here
	failed  bool      // the op returned an error
	dropped bool      // from a discarded set-up repetition: measured, not replayed
}

// runResult is what the untraced run measured.
type runResult struct {
	classes map[string]*opClass // filled by finish
	setup   []float64           // seconds of each set-up repetition
	loopOps int                 // ops completed by the measured closed loop
	loopDur time.Duration       // time the loop's blocks took
	blocks  []loopBlock         // the loop's blocks, in order
	block   int                 // block the next logged op belongs to
	heapMB  float64
	report  []metric // workload-specific numbers for the human-readable report
	fails   []string // output checks that failed
	log     []opRec
	fsType  string
}

// loopBlock is one block of the measured loop: the log indices [lo, hi) of
// its ops and how long they took.
type loopBlock struct {
	lo, hi int
	dur    time.Duration
}

func (b loopBlock) ops() int { return b.hi - b.lo }

func newResult() *runResult {
	r := &runResult{classes: map[string]*opClass{}}
	for _, c := range classNames {
		r.classes[c] = &opClass{}
	}
	return r
}

// classNames are the op classes every workload runs.
var classNames = []string{"est", "search", "insert"}

func (r *runResult) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// timed runs fn and appends its record, latency and block included, to the
// log.
func (r *runResult) timed(rec opRec, fn func(*opRec) error) error {
	t := time.Now()
	err := fn(&rec)
	rec.ms, rec.failed = float64(time.Since(t))/1e6, err != nil
	rec.block = r.block
	r.log = append(r.log, rec)
	return err
}

// timeSetup times one set-up repetition.
func (r *runResult) timeSetup(fn func() error) error {
	t := time.Now()
	err := fn()
	r.setup = append(r.setup, time.Since(t).Seconds())
	return err
}

// loop runs the workload's measured closed loop: one client issues step(i)
// for i = 0, ..., n-1 and waits for each answer. The n steps run as nb
// consecutive blocks of equal size, and every op records its block: each
// timing metric is taken per block and reported as the median over the
// blocks, so a disturbance of the host that lasts less than half the loop
// does not move it. When before is not nil it runs ahead of each block,
// off the clock (coord_ingest starts each block on a fresh topology). A
// forced GC runs before each block's clock starts, so garbage that set-up
// and warm-up left is not collected inside the loop.
func (r *runResult) loop(n, nb int, before func(b int) error, step func(i int)) error {
	for b := 0; b < nb; b++ {
		if before != nil {
			if err := before(b); err != nil {
				return err
			}
		}
		runtime.GC()
		r.block = b
		lo, t := len(r.log), time.Now()
		for i := b * n / nb; i < (b+1)*n/nb; i++ {
			step(i)
		}
		blk := loopBlock{lo: lo, hi: len(r.log), dur: time.Since(t)}
		r.blocks = append(r.blocks, blk)
		r.loopOps += blk.ops()
		r.loopDur += blk.dur
	}
	return nil
}

// loopCount is how many ops of the given kind the measured loop ran.
func (r *runResult) loopCount(kind string) int {
	n := 0
	for _, b := range r.blocks {
		for _, o := range r.log[b.lo:b.hi] {
			if o.kind == kind {
				n++
			}
		}
	}
	return n
}

// blocksFor is how many blocks a loop whose sparsest class gets perClass
// samples is cut into: as many as give every block sz.minOps samples of
// that class (so each block's p90 has 10 beyond it), at most maxBlocks.
func blocksFor(sz sizes, perClass int) int {
	return max(1, min(maxBlocks, perClass/sz.minOps))
}

const maxBlocks = 5

// opCount is the fixed op count of a phase: rate ops per second of run
// length, and at least least. The count is set before the phase starts, so
// a faster host does the same work in less time instead of more work.
func opCount(cfg config, rate, least int) int {
	return max(least, int(float64(rate)*cfg.dur.Seconds()))
}

// finish fills the op classes from the log. Every measured op counts as an
// attempt of its class, and every successful one is a latency sample of its
// block.
func (r *runResult) finish() {
	for _, o := range r.log {
		cl := r.classes[o.kind]
		if cl == nil || o.warm {
			continue
		}
		cl.attempted++
		if o.failed {
			cl.failed++
			continue
		}
		cl.lat, cl.blk = append(cl.lat, o.ms), append(cl.blk, o.block)
	}
}

// moreSetups reports whether another set-up repetition is due: at least
// setupReps of them, and cheap ones until they add up to setupBudget, so
// the median rests on enough repetitions to be steady. A traced run sets
// up once; it reports no set-up time.
func (r *runResult) moreSetups(cfg config) bool {
	n := len(r.setup)
	if cfg.trace {
		return n < 1
	}
	var total float64
	for _, s := range r.setup {
		total += s
	}
	return n < cfg.sz.setupReps || (total < setupBudget && n < maxSetupReps)
}

const (
	setupBudget  = 1.0 // seconds
	maxSetupReps = 25
)

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd derives the end-to-end metrics of an untraced run. Every
// percentile is taken inside one op class and one block, and reported as
// the median over the class's blocks; ops_per_s is the median of the loop's
// blocks' rates.
func endToEnd(r *runResult) ([]metric, error) {
	rates := make([]float64, len(r.blocks))
	for i, b := range r.blocks {
		rates[i] = float64(b.ops()) / b.dur.Seconds()
	}
	out := []metric{
		{name: "setup_s", unit: "s", value: median(r.setup), note: fmt.Sprintf("median of %d set-ups", len(r.setup))},
		{name: "ops_per_s", unit: "1/s", value: median(rates), note: fmt.Sprintf("%d ops in %.2fs; median of %d blocks %s", r.loopOps, r.loopDur.Seconds(), len(rates), fmtVals(rates))},
	}
	for _, c := range classNames {
		cl := r.classes[c]
		blocks := cl.byBlock()
		for _, p := range []float64{0.5, 0.9} {
			v, per, err := blockPercentile(blocks, p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c, err)
			}
			out = append(out, metric{name: fmt.Sprintf("%s_p%g_ms", c, 100*p), unit: "ms", value: v,
				note: fmt.Sprintf("n=%d; median of %d blocks %s", len(cl.lat), len(blocks), fmtVals(per))})
		}
	}
	out = append(out, metric{name: "heap_mb", unit: "MB", value: r.heapMB, note: "live heap after GC"})
	return out, nil
}

// vectors returns the vectors an op inserts or searches for.
func (in *inputs) vectors(o opRec) []lshjoin.Vector {
	src := in.corpus
	if o.pool {
		src = in.pool
	}
	return src[o.arg : o.arg+max(o.n, 1)]
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
