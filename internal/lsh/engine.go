package lsh

import (
	"math"
	"runtime"
	"sync"

	"lshjoin/internal/kernel"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// SignConfig tunes how the batch engine signs a corpus. The zero value is
// the default build: fused single-pass cache with a 64 MiB panel budget.
// Every configuration produces signatures byte-identical to the naive
// Family.Hash path.
type SignConfig struct {
	// PanelBytes caps the resident projection cache. When the fused cache
	// (|vocab| · ℓ·k · 8 bytes) would exceed it, the engine signs in
	// dimension-block panels instead of one resident cache: vocabulary rows
	// are sorted by dimension and vectors keep a cursor, so accumulation
	// order — and output — is identical to the fused pass. 0 means the
	// 64 MiB default; BuildSigned rejects a negative budget.
	PanelBytes int
}

const defaultPanelBytes = 64 << 20

// panelRows returns how many vocabulary rows (ℓ·k values of 8 bytes each)
// fit the panel budget.
func (e *engine) panelRows() int {
	pb := e.cfg.PanelBytes
	if pb <= 0 {
		pb = defaultPanelBytes
	}
	pr := pb / (e.lk * 8)
	if pr < 1 {
		pr = 1
	}
	return pr
}

// engine computes bucket keys for whole batches of vectors at once. The
// naive path — Family.Hash per (vector, function) — recomputes every keyed
// gaussian / keyed hash once per vector that touches a dimension, an
// O(n·ℓ·k·nnz) bill dominated by the keyed-stream evaluations. The engine
// flips the loop to dimension-major order and fuses all ℓ tables: one
// vocabulary pass assigns each distinct dimension a dense row, one fill pass
// materializes the fused ℓ·k-wide keyed-stream row of every dimension
// exactly once (xrand.FillGaussRow / FillHashRow, batched and inlined), and
// one signing pass folds each vector's entries into all ℓ·k accumulators
// through one fold per family (foldSim, foldMin) over the unrolled kernels in
// internal/kernel. Corpora that reuse dimensions
// (any Zipfian vocabulary) pay the expensive keyed streams only once per
// dimension, and the fused layout touches the corpus once instead of ℓ
// times.
//
// When the fused cache would exceed SignConfig.PanelBytes the engine streams
// dimension-block panels instead: vocabulary rows are renumbered in
// ascending dimension order (so each vector's row indices are monotone) and
// a per-vector cursor consumes entries panel by panel through the same fold,
// preserving the exact per-lane accumulation order of the fused pass.
//
// The engine is an internal optimization, not a semantic change: it
// produces keys byte-identical to the Family.Hash + packKey path for every
// family and for both the fused and panel schedules (engine_test.go enforces
// this), because cached rows come from the same keyed streams and per-lane
// accumulation visits entries in the same order as the naive hash.
type engine struct {
	fam    Family
	k, ell int
	lk     int // ell * k, the fused row width
	narrow bool
	cfg    SignConfig
}

// signatures holds per-table bucket keys for a batch of vectors: u64 in
// narrow mode (k·bits ≤ 64), canonical packed strings otherwise.
type signatures struct {
	narrow bool
	u64    [][]uint64 // [table][vector]
	str    [][]string
}

func newEngine(fam Family, k, ell int, cfg SignConfig) *engine {
	return &engine{
		fam:    fam,
		k:      k,
		ell:    ell,
		lk:     ell * k,
		narrow: isNarrow(k, fam.Bits()),
		cfg:    cfg,
	}
}

// newSignatures allocates the per-table key slices for n vectors. These are
// never pooled: tables retain them as their key columns.
func newSignatures(narrow bool, ell, n int) *signatures {
	s := &signatures{narrow: narrow}
	if narrow {
		s.u64 = make([][]uint64, ell)
		for t := range s.u64 {
			s.u64[t] = make([]uint64, n)
		}
		return s
	}
	s.str = make([][]string, ell)
	for t := range s.str {
		s.str[t] = make([]string, n)
	}
	return s
}

// tables builds one table per key column; table t hashes with functions
// [t·k, (t+1)·k).
func (s *signatures) tables(k, bits int) []*Table {
	out := make([]*Table, max(len(s.u64), len(s.str)))
	for t := range out {
		if s.narrow {
			out[t] = buildTable(s.u64[t], k, t*k, bits)
		} else {
			out[t] = buildTable(s.str[t], k, t*k, bits)
		}
	}
	return out
}

// append extends every key column with o's.
func (s *signatures) append(o *signatures) {
	for t := range s.u64 {
		s.u64[t] = append(s.u64[t], o.u64[t]...)
	}
	for t := range s.str {
		s.str[t] = append(s.str[t], o.str[t]...)
	}
}

// truncate empties every key column, keeping its backing array.
func (s *signatures) truncate() {
	for t := range s.u64 {
		s.u64[t] = s.u64[t][:0]
	}
	for t := range s.str {
		s.str[t] = s.str[t][:0]
	}
}

// sign computes the bucket key of every vector in every table. The result is
// deterministic and independent of GOMAXPROCS: workers write disjoint,
// index-addressed slots, and all cached values are pure functions of
// (seed, fn, dim).
func (e *engine) sign(data []vecmath.Vector) *signatures {
	sigs := newSignatures(e.narrow, e.ell, len(data))
	if len(data) == 0 {
		return sigs
	}
	switch f := e.fam.(type) {
	case SimHash:
		e.signSimHash(f, data, sigs)
	case MinHash:
		e.signMinHash(f, data, sigs)
	default:
		panic("lsh: no signing engine for family " + e.fam.Name()) // validateParams refuses it
	}
	return sigs
}

// SignDigest signs data with the batch engine and folds every produced key
// into a 64-bit FNV-style checksum. It exists for benchmarks and profiling:
// it exercises exactly the signing path Build uses — vocabulary, fill,
// accumulate, pack — without paying for table construction. It refuses
// the family, k and ℓ that Build refuses.
func SignDigest(data []vecmath.Vector, family Family, k, ell int, cfg SignConfig) (uint64, error) {
	if err := validateParams(family, k, ell); err != nil {
		return 0, err
	}
	sigs := newEngine(family, k, ell, cfg).sign(data)
	h := uint64(14695981039346656037)
	for _, col := range sigs.u64 {
		for _, w := range col {
			h = (h ^ w) * 1099511628211
		}
	}
	for _, col := range sigs.str {
		for _, s := range col {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
		}
	}
	return h, nil
}

// vocab is the batch vocabulary: every distinct dimension gets a dense row
// index (first-appearance order in the fused schedule; ascending-dimension
// order after sortByDim), and each vector's entries are pre-translated to
// row indices so the signing loops never touch a dimension lookup.
type vocab struct {
	dims   []uint32  // row -> dimension
	rowIdx [][]int32 // per vector: row index of each entry, aligned with Entries()

	backing []int32 // pooled storage behind rowIdx, returned by release
}

// release returns the vocabulary's pooled buffers. The vocab (and every
// rowIdx slice) must not be used afterwards.
func (v *vocab) release() {
	u32Pool.put(v.dims)
	i32Pool.put(v.backing)
}

// vocabulary builds the batch vocabulary in one pass. When the dimension
// space is small relative to the batch it uses a flat lookup table instead
// of a map (DBLP-shaped corpora live here; the cutoff bounds LUT memory by a
// small multiple of the batch itself). The map path is pre-sized from the
// batch NNZ so growth never rehashes.
func vocabulary(data []vecmath.Vector) *vocab {
	var maxDim uint64
	total := 0
	for _, v := range data {
		if d := v.MaxDim(); d > maxDim {
			maxDim = d
		}
		total += v.NNZ()
	}
	// Distinct dimensions never exceed total entries, so a total-capacity
	// dims buffer (pooled, like the rowIdx backing) can't reallocate.
	voc := &vocab{rowIdx: make([][]int32, len(data))}
	voc.dims = u32Pool.get(total)[:0]
	voc.backing = i32Pool.get(total)
	backing := voc.backing
	if maxDim <= 8*uint64(total)+4096 && total < lutRowMax {
		lut := getLUT(int(maxDim))
		defer putLUT(lut)
		slots := lut.slots
		tag := lut.epoch << 24
		for i, v := range data {
			es := v.Entries()
			ri := backing[:len(es):len(es)]
			backing = backing[len(es):]
			for e, en := range es {
				var r int32
				if s := slots[en.Dim]; s>>24 == lut.epoch {
					r = int32(s&lutRowMax) - 1
				} else {
					r = int32(len(voc.dims))
					voc.dims = append(voc.dims, en.Dim)
					slots[en.Dim] = tag | uint32(len(voc.dims))
				}
				ri[e] = r
			}
			voc.rowIdx[i] = ri
		}
		return voc
	}
	rows := make(map[uint32]int32, total)
	for i, v := range data {
		es := v.Entries()
		ri := backing[:len(es):len(es)]
		backing = backing[len(es):]
		for e, en := range es {
			r, ok := rows[en.Dim]
			if !ok {
				r = int32(len(voc.dims))
				rows[en.Dim] = r
				voc.dims = append(voc.dims, en.Dim)
			}
			ri[e] = r
		}
		voc.rowIdx[i] = ri
	}
	return voc
}

// sortByDim renumbers vocabulary rows in ascending dimension order (LSD
// radix sort, deterministic) and rewrites every vector's row indices. Since
// vector entries are dimension-sorted, each rowIdx slice becomes monotone
// non-decreasing afterwards — the invariant the panel-streamed schedules
// need so a per-vector cursor can consume entries in order across panels.
func (v *vocab) sortByDim() {
	rows := len(v.dims)
	if rows < 2 {
		return
	}
	dims := v.dims
	tmpD := make([]uint32, rows)
	old := make([]int32, rows)
	tmpO := make([]int32, rows)
	for i := range old {
		old[i] = int32(i)
	}
	var counts [1 << 11]int32
	for shift := uint(0); shift < 32; shift += 11 {
		for i := range counts {
			counts[i] = 0
		}
		for _, d := range dims {
			counts[(d>>shift)&2047]++
		}
		sum := int32(0)
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for i, d := range dims {
			dig := (d >> shift) & 2047
			p := counts[dig]
			counts[dig] = p + 1
			tmpD[p] = d
			tmpO[p] = old[i]
		}
		dims, tmpD = tmpD, dims
		old, tmpO = tmpO, old
	}
	newOf := tmpO // free after the passes; reuse as old-row -> new-row map
	for p, o := range old {
		newOf[o] = int32(p)
	}
	v.dims = dims
	for _, ri := range v.rowIdx {
		for m := range ri {
			ri[m] = newOf[ri[m]]
		}
	}
}

// slicePool recycles the large signing buffers — projection / rank caches,
// fused accumulators, vocabulary and table-build scratch — across builds and
// insert batches, which removes the allocator's page-zeroing from the hot
// path. Contents are undefined on get; every user either fully overwrites or
// explicitly resets. Signature key slices are never pooled (tables retain
// them).
type slicePool[T any] struct{ p sync.Pool }

var (
	f64Pool slicePool[float64]
	u64Pool slicePool[uint64]
	i32Pool slicePool[int32]
	u32Pool slicePool[uint32]
)

// get returns a slice of length n, reusing a pooled one when it is large
// enough.
func (sp *slicePool[T]) get(n int) []T {
	if p, _ := sp.p.Get().(*[]T); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]T, n)
}

func (sp *slicePool[T]) put(s []T) { sp.p.Put(&s) }

// dimLUT is the pooled dimension-to-row lookup table. Each slot holds the
// owner's epoch in the high 8 bits and row+1 in the low 24, so reusing the
// table only needs an epoch bump — stale slots from earlier builds fail the
// tag compare. A real clear happens once every 255 reuses (and for the zeroed
// memory of a fresh allocation, whose tag 0 never matches a live epoch).
type dimLUT struct {
	epoch uint32
	slots []uint32
}

// lutRowMax bounds row+1 to the 24 bits a slot can hold; vocabularies at
// least this large take the map path instead.
const lutRowMax = 1<<24 - 1

var lutPool sync.Pool

func getLUT(n int) *dimLUT {
	l, _ := lutPool.Get().(*dimLUT)
	if l == nil || cap(l.slots) < n {
		l = &dimLUT{slots: make([]uint32, n)}
	}
	l.slots = l.slots[:n]
	l.epoch++
	if l.epoch == 256 {
		l.epoch = 1
		clear(l.slots[:cap(l.slots)])
	}
	return l
}

func putLUT(l *dimLUT) { lutPool.Put(l) }

// parallelChunks invokes fn over [0, n) split into contiguous chunks, one
// per available CPU. fn must only write to slots in its own range.
func parallelChunks(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// packSim packs one vector's fused sign bits into every table's key slot.
// dots holds all ℓ·k accumulators, table-major.
func (e *engine) packSim(sigs *signatures, i int, dots []float64, vals []uint64) {
	k := e.k
	if sigs.narrow {
		for t := 0; t < e.ell; t++ {
			var word uint64
			for _, dot := range dots[t*k : (t+1)*k] {
				word <<= 1
				if dot >= 0 {
					word |= 1
				}
			}
			sigs.u64[t][i] = word
		}
		return
	}
	for t := 0; t < e.ell; t++ {
		for j, dot := range dots[t*k : (t+1)*k] {
			if dot >= 0 {
				vals[j] = 1
			} else {
				vals[j] = 0
			}
		}
		sigs.str[t][i] = packKey(vals, 1)
	}
}

// signSimHash signs the batch against a fused ℓ·k-wide hyperplane cache:
// proj[row·ℓk + t·k + j] = a_{t·k+j}[dim(row)]. One vocabulary, one fill
// pass, one accumulate pass for all tables — fused single-pass when the
// whole projection cache fits the panel budget, panel-streamed otherwise.
// Both schedules fold through foldSim into zeroed accumulators, so every
// accumulator equals SimHash.Hash's dot product bit for bit, and so does
// its sign.
func (e *engine) signSimHash(f SimHash, data []vecmath.Vector, sigs *signatures) {
	voc := vocabulary(data)
	defer voc.release()
	streams := make([]xrand.GaussStream, e.lk)
	for fn := range streams {
		streams[fn] = xrand.NewGaussStream(f.seed, uint64(fn))
	}
	lk := e.lk
	rows := len(voc.dims)
	n := len(data)

	panelRows := e.panelRows()
	if panelRows >= rows {
		// Fused single pass: the whole cache is resident.
		proj := f64Pool.get(rows * lk)
		defer f64Pool.put(proj)
		parallelChunks(rows, func(lo, hi int) {
			xrand.FillGaussRows(proj[lo*lk:hi*lk], streams, voc.dims[lo:hi])
		})
		parallelChunks(n, func(lo, hi int) {
			dots := make([]float64, lk)
			var vals []uint64
			if !sigs.narrow {
				vals = make([]uint64, e.k)
			}
			for i := lo; i < hi; i++ {
				clear(dots)
				foldSim(dots, proj, data[i].Entries(), voc.rowIdx[i], 0, int32(rows), 0)
				e.packSim(sigs, i, dots, vals)
			}
		})
		return
	}

	// Panel-streamed: renumber rows by dimension so per-vector row indices
	// are monotone, then sweep dimension-block panels with persistent
	// accumulators and per-vector cursors.
	voc.sortByDim()
	dots := f64Pool.get(n * lk)
	defer f64Pool.put(dots)
	clear(dots)
	cur := i32Pool.get(n)
	defer i32Pool.put(cur)
	clear(cur)
	proj := f64Pool.get(panelRows * lk)
	defer f64Pool.put(proj)
	for r0 := 0; r0 < rows; r0 += panelRows {
		r1 := r0 + panelRows
		if r1 > rows {
			r1 = rows
		}
		parallelChunks(r1-r0, func(lo, hi int) {
			xrand.FillGaussRows(proj[lo*lk:hi*lk], streams, voc.dims[r0+lo:r0+hi])
		})
		lim := int32(r1)
		parallelChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Most vectors have no entry in a given panel: skip them
				// without a call.
				if ri, c := voc.rowIdx[i], cur[i]; int(c) < len(ri) && ri[c] < lim {
					cur[i] = int32(foldSim(dots[i*lk:i*lk+lk], proj, data[i].Entries(), ri, int(c), lim, r0))
				}
			}
		})
	}
	parallelChunks(n, func(lo, hi int) {
		var vals []uint64
		if !sigs.narrow {
			vals = make([]uint64, e.k)
		}
		for i := lo; i < hi; i++ {
			e.packSim(sigs, i, dots[i*lk:i*lk+lk], vals)
		}
	})
}

// foldSim folds one vector's entries into its accumulator dots, starting at
// entry c and stopping at the first entry whose row is not below lim, and
// returns that entry's index. proj holds len(dots) = ℓ·k values per row,
// from row r0 on. The fused pass passes every row (r0 = 0, lim = rows); the
// panel pass relies on each vector's rows ascending. Entries fold in order,
// four per kernel call while four remain below lim, then two, then one, and
// every kernel adds each weighted row in turn with one rounding per multiply
// and per add — so each lane accumulates exactly SimHash.Hash's sum.
func foldSim(dots, proj []float64, es []vecmath.Entry, ri []int32, c int, lim int32, r0 int) int {
	lk := len(dots)
	for ; c+4 <= len(ri) && ri[c+3] < lim; c += 4 {
		b1, b2 := (int(ri[c])-r0)*lk, (int(ri[c+1])-r0)*lk
		b3, b4 := (int(ri[c+2])-r0)*lk, (int(ri[c+3])-r0)*lk
		kernel.F64MulAdd4(dots, proj[b1:b1+lk], proj[b2:b2+lk], proj[b3:b3+lk], proj[b4:b4+lk],
			float64(es[c].Weight), float64(es[c+1].Weight), float64(es[c+2].Weight), float64(es[c+3].Weight))
	}
	if c+2 <= len(ri) && ri[c+1] < lim {
		b1, b2 := (int(ri[c])-r0)*lk, (int(ri[c+1])-r0)*lk
		kernel.F64MulAdd2(dots, proj[b1:b1+lk], proj[b2:b2+lk], float64(es[c].Weight), float64(es[c+1].Weight))
		c += 2
	}
	if c < len(ri) && ri[c] < lim {
		b := (int(ri[c]) - r0) * lk
		kernel.F64MulAdd(dots, proj[b:b+lk], float64(es[c].Weight))
		c++
	}
	return c
}

// packMin packs one vector's fused minima into every table's key slot.
func (e *engine) packMin(f MinHash, sigs *signatures, i int, best []uint64, vals []uint64) {
	k := e.k
	shift := uint(64 - f.bits)
	if sigs.narrow {
		for t := 0; t < e.ell; t++ {
			var word uint64
			for _, b := range best[t*k : (t+1)*k] {
				word = word<<uint(f.bits) | b>>shift
			}
			sigs.u64[t][i] = word
		}
		return
	}
	for t := 0; t < e.ell; t++ {
		for j, b := range best[t*k : (t+1)*k] {
			vals[j] = b >> shift
		}
		sigs.str[t][i] = packKey(vals, f.bits)
	}
}

// signMinHash signs the batch against a fused ℓ·k-wide rank cache
// rank[row·ℓk + t·k + j] = hash64(seed, t·k+j, dim(row)); each vector takes
// elementwise minima over its entries (order-independent, so trivially
// identical to the naive path) and truncates to Bits(). Falls back to the
// panel-streamed schedule when the cache exceeds the panel budget; both
// schedules fold through foldMin.
func (e *engine) signMinHash(f MinHash, data []vecmath.Vector, sigs *signatures) {
	voc := vocabulary(data)
	defer voc.release()
	lk := e.lk
	rows := len(voc.dims)
	n := len(data)
	streams := make([]xrand.HashStream, lk)
	for fn := range streams {
		streams[fn] = xrand.NewHashStream(f.seed, uint64(fn))
	}
	// An empty vector's minima are MinHash.Hash's sentinel ranks.
	empty := make([]uint64, lk)
	xrand.FillHashRow(empty, streams, math.MaxUint64)

	panelRows := e.panelRows()
	if panelRows >= rows {
		rank := u64Pool.get(rows * lk)
		defer u64Pool.put(rank)
		parallelChunks(rows, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				xrand.FillHashRow(rank[r*lk:r*lk+lk], streams, uint64(voc.dims[r]))
			}
		})
		parallelChunks(n, func(lo, hi int) {
			best := make([]uint64, lk)
			vals := make([]uint64, e.k)
			for i := lo; i < hi; i++ {
				ri := voc.rowIdx[i]
				for j := range best {
					best[j] = ^uint64(0)
				}
				if len(ri) == 0 {
					copy(best, empty)
				}
				foldMin(best, rank, ri, 0, int32(rows), 0)
				e.packMin(f, sigs, i, best, vals)
			}
		})
		return
	}

	// Panel-streamed minima: same cursor sweep as SimHash, min instead of
	// multiply-add (order-irrelevant, but the sweep keeps it anyway).
	voc.sortByDim()
	best := u64Pool.get(n * lk)
	defer u64Pool.put(best)
	for j := range best {
		best[j] = ^uint64(0)
	}
	cur := i32Pool.get(n)
	defer i32Pool.put(cur)
	clear(cur)
	rank := u64Pool.get(panelRows * lk)
	defer u64Pool.put(rank)
	for r0 := 0; r0 < rows; r0 += panelRows {
		r1 := r0 + panelRows
		if r1 > rows {
			r1 = rows
		}
		parallelChunks(r1-r0, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				xrand.FillHashRow(rank[r*lk:r*lk+lk], streams, uint64(voc.dims[r0+r]))
			}
		})
		lim := int32(r1)
		parallelChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if ri, c := voc.rowIdx[i], cur[i]; int(c) < len(ri) && ri[c] < lim {
					cur[i] = int32(foldMin(best[i*lk:i*lk+lk], rank, ri, int(c), lim, r0))
				}
			}
		})
	}
	parallelChunks(n, func(lo, hi int) {
		vals := make([]uint64, e.k)
		for i := lo; i < hi; i++ {
			b := best[i*lk : i*lk+lk]
			if len(voc.rowIdx[i]) == 0 {
				copy(b, empty)
			}
			e.packMin(f, sigs, i, b, vals)
		}
	})
}

// foldMin folds the rank rows of one vector's entries into its running
// minima best, two per kernel call, then one; the cursor, row limit and
// panel layout are foldSim's.
func foldMin(best, rank []uint64, ri []int32, c int, lim int32, r0 int) int {
	lk := len(best)
	for ; c+2 <= len(ri) && ri[c+1] < lim; c += 2 {
		b1, b2 := (int(ri[c])-r0)*lk, (int(ri[c+1])-r0)*lk
		kernel.U64Min2(best, rank[b1:b1+lk], rank[b2:b2+lk])
	}
	if c < len(ri) && ri[c] < lim {
		b := (int(ri[c]) - r0) * lk
		kernel.U64Min(best, rank[b:b+lk])
		c++
	}
	return c
}
