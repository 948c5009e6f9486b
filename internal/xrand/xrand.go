// Package xrand provides the deterministic random number generation used
// throughout lshjoin: a SplitMix64 stream mixer, an xoshiro256** PRNG,
// gaussian and Zipf samplers, and stateless keyed gaussian streams that let
// LSH hash functions materialize random hyperplane components on demand
// without storing O(d) floats per function.
//
// Everything in this package is deterministic given its seed, which makes
// experiments and tests reproducible bit-for-bit across runs and platforms.
package xrand

import (
	"encoding/binary"
	"math"
	"math/bits"

	"lshjoin/internal/kernel"
)

// SplitMix64 advances the given state and returns the next value of the
// SplitMix64 sequence. It is used both as a seeding primitive for RNG and
// as a stateless mixing function for keyed streams.
func SplitMix64(state uint64) (next uint64, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = z ^ (z >> 31)
	return state, z
}

// Mix64 hashes x through the SplitMix64 finalizer. It is a fast, high-quality
// 64-bit mixer suitable for deriving independent streams from composed keys.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Mix2 mixes two words into one, for keyed streams indexed by a pair
// (e.g. hash function index and dimension).
func Mix2(a, b uint64) uint64 {
	return Mix64(Mix64(a) ^ (b * 0xD6E8FEB86659FD93))
}

// Mix3 mixes three words into one.
func Mix3(a, b, c uint64) uint64 {
	return Mix64(Mix2(a, b) ^ (c * 0xA0761D6478BD642F))
}

// RNG is an xoshiro256** pseudo random number generator. The zero value is
// not usable; construct with New. RNG is not safe for concurrent use; give
// each goroutine its own instance (use Split).
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *RNG {
	var r RNG
	st := seed
	for i := range r.s {
		st, r.s[i] = SplitMix64(st)
	}
	// xoshiro requires a non-zero state; SplitMix64 output of any seed is
	// astronomically unlikely to be all zero, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return &r
}

// Split derives an independent generator from r, suitable for handing to
// another goroutine or subcomponent without correlating streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x8BADF00D5EEDC0DE)
}

// SplitN derives n independent generators from r in a fixed left-to-right
// order. Sharded computations that hand stream i to shard i produce results
// that depend only on r's state and n — not on how many OS threads execute
// the shards — which is what keeps the parallel estimator samplers
// deterministic across GOMAXPROCS settings.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire multiply-shift rejection. The threshold (2^64 − n) % n is below
	// n, so a low word ≥ n is accepted without computing it.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate using the Marsaglia polar method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes indices [0,n) via swap using Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// KeyedUniform returns a uniform float64 in [0,1) determined entirely by the
// key triple. Calls with the same triple always return the same value.
func KeyedUniform(seed, fn, dim uint64) float64 {
	return float64(Mix3(seed, fn, dim)>>11) / (1 << 53)
}

// KeyedGaussian returns a standard normal variate determined entirely by the
// key triple (seed, fn, dim). It lets a random-hyperplane hash function over
// a d-dimensional space avoid storing d gaussians: component a[dim] of
// hyperplane fn is recomputed on demand.
//
// The variate is Φ⁻¹(u) of one keyed uniform. The inverse CDF needs no
// transcendentals outside the 4.9% tail region (one rational approximation
// versus Box-Muller's sqrt+log+cos per component), which matters because LSH
// index construction evaluates this function once per (function, dimension)
// pair of the whole corpus vocabulary.
func KeyedGaussian(seed, fn, dim uint64) float64 {
	return gaussianFromHash(Mix3(seed, fn, dim))
}

// gaussianFromHash turns 64 hashed bits into the N(0,1) variate Φ⁻¹(u) of
// the implied uniform u — via the interpolation table in the central region,
// the exact rational approximation in the tails.
func gaussianFromHash(h uint64) float64 {
	// 53-bit uniform centered in its bucket: strictly inside (0, 1).
	u := (float64(h>>11) + 0.5) / (1 << 53)
	t := u * invNormSlots
	slot := int(t)
	if slot < invNormTailSlots || slot >= invNormSlots-invNormTailSlots {
		return InvNormCDF(u)
	}
	e := &invNormTab[slot]
	return e[0] + (t-float64(slot))*e[1]
}

// The interpolation table: invNormTab[s] holds Φ⁻¹(s/slots) and the slope to
// the next knot. Slots within tailSlots of either end (3.1% of the mass,
// where the quantile's curvature blows up) defer to InvNormCDF; inside, the
// piecewise-linear error is below 1.1e-5 — far under any statistical
// tolerance of the LSH estimators, and ~4× cheaper than evaluating the
// rational approximation per component.
const (
	invNormSlots     = 4096
	invNormTailSlots = 64
)

var invNormTab = func() [invNormSlots][2]float64 {
	var tab [invNormSlots][2]float64
	prev := InvNormCDF(float64(invNormTailSlots) / invNormSlots)
	for s := invNormTailSlots; s < invNormSlots-invNormTailSlots; s++ {
		next := InvNormCDF(float64(s+1) / invNormSlots)
		tab[s] = [2]float64{prev, next - prev}
		prev = next
	}
	return tab
}()

// GaussStream is a keyed gaussian stream with the (seed, fn) half of the key
// pre-mixed, for dimension-major batch hashing: At(dim) returns exactly
// KeyedGaussian(seed, fn, dim) at roughly a third of the mixing cost.
type GaussStream struct{ pre uint64 }

// NewGaussStream pre-mixes (seed, fn).
func NewGaussStream(seed, fn uint64) GaussStream {
	return GaussStream{pre: Mix2(seed, fn)}
}

// At returns KeyedGaussian(seed, fn, dim).
func (g GaussStream) At(dim uint64) float64 {
	// Identical to Mix3(seed, fn, dim) with the Mix2 prefix hoisted.
	return gaussianFromHash(Mix64(g.pre ^ (dim * 0xA0761D6478BD642F)))
}

// HashStream is the analogous pre-mixed form of KeyedHash.
type HashStream struct{ pre uint64 }

// NewHashStream pre-mixes (seed, fn).
func NewHashStream(seed, fn uint64) HashStream {
	return HashStream{pre: Mix2(seed, fn)}
}

// At returns KeyedHash(seed, fn, elem).
func (h HashStream) At(elem uint64) uint64 {
	return Mix64(h.pre ^ (elem * 0xA0761D6478BD642F))
}

// The batched row fills below are the dimension-major form of At: one call
// fills dst[f] = streams[f].At(dim) for a whole fused row of hash functions.
// The dim half of the key mix is hoisted out of the loop and the bodies are
// unrolled 4-wide with independent mixing chains, which matters because the
// signature engine evaluates one such row per distinct corpus dimension —
// the single largest cost of an index build. Each fill is value-identical to
// the per-stream At loop (asserted by TestRowFillsMatchAt).

// FillGaussRow fills dst[f] = streams[f].At(dim) for f in [0, len(dst)).
// len(streams) must be >= len(dst).
//
// The loop body is gaussianFromHash written out by hand: the function call
// per value (it exceeds the inliner's budget because of the tail-region
// InvNormCDF call) would cost as much as the arithmetic itself, and manual
// inlining also lets independent table lookups overlap.
//
// The slot/fraction arithmetic is restated in exact integer form. With
// hv = h>>11 < 2^53, the sum float64(hv)+0.5 is exact for hv < 2^52 (53
// significand bits suffice) and rounds to even — hv + (hv&1) — when bit 52
// is set. In half-units μ (sum = μ/2), both cases are integers with ≤ 53
// significant bits, so u = μ·2⁻⁵⁴ and t = u·4096 = μ·2⁻⁴² are exact:
// int(t) is exactly μ>>42 and t−float64(slot) is exactly the low 42 bits of
// μ scaled by 2⁻⁴². Every quantity the original floating-point expressions
// produced is therefore reproduced bit for bit (TestRowFillsMatchAt
// asserts this against At, which keeps the floating-point form), while the
// table-lookup address comes off a short integer chain instead of a
// convert→mul→truncate chain.
func FillGaussRow(dst []float64, streams []GaussStream, dim uint64) {
	m := dim * 0xA0761D6478BD642F
	n := len(dst)
	streams = streams[:n]
	const fracMask = 1<<42 - 1
	// Central slots form one contiguous range, so "in table" is a single
	// unsigned compare; processing four streams per iteration keeps four
	// independent mix→slot→load chains in flight (all four land in the
	// central region ~88% of the time).
	const central = uint(invNormSlots - 2*invNormTailSlots)
	f := 0
	for ; f+4 <= n; f += 4 {
		hv1 := Mix64(streams[f].pre^m) >> 11
		hv2 := Mix64(streams[f+1].pre^m) >> 11
		hv3 := Mix64(streams[f+2].pre^m) >> 11
		hv4 := Mix64(streams[f+3].pre^m) >> 11
		b1 := hv1 >> 52 // 1 iff float64(hv)+0.5 rounds (to even)
		b2 := hv2 >> 52
		b3 := hv3 >> 52
		b4 := hv4 >> 52
		mu1 := hv1<<1 + 1 - b1 + (b1&hv1&1)<<1
		mu2 := hv2<<1 + 1 - b2 + (b2&hv2&1)<<1
		mu3 := hv3<<1 + 1 - b3 + (b3&hv3&1)<<1
		mu4 := hv4<<1 + 1 - b4 + (b4&hv4&1)<<1
		s1 := uint(mu1>>42) - invNormTailSlots
		s2 := uint(mu2>>42) - invNormTailSlots
		s3 := uint(mu3>>42) - invNormTailSlots
		s4 := uint(mu4>>42) - invNormTailSlots
		if s1 < central && s2 < central && s3 < central && s4 < central {
			e1 := &invNormTab[s1+invNormTailSlots]
			e2 := &invNormTab[s2+invNormTailSlots]
			e3 := &invNormTab[s3+invNormTailSlots]
			e4 := &invNormTab[s4+invNormTailSlots]
			dst[f] = e1[0] + float64(mu1&fracMask)*(0x1p-42)*e1[1]
			dst[f+1] = e2[0] + float64(mu2&fracMask)*(0x1p-42)*e2[1]
			dst[f+2] = e3[0] + float64(mu3&fracMask)*(0x1p-42)*e3[1]
			dst[f+3] = e4[0] + float64(mu4&fracMask)*(0x1p-42)*e4[1]
			continue
		}
		for o, v := range [4]struct {
			s  uint
			mu uint64
			hv uint64
		}{{s1, mu1, hv1}, {s2, mu2, hv2}, {s3, mu3, hv3}, {s4, mu4, hv4}} {
			if v.s < central {
				e := &invNormTab[v.s+invNormTailSlots]
				dst[f+o] = e[0] + float64(v.mu&fracMask)*(0x1p-42)*e[1]
			} else {
				dst[f+o] = gaussTail(v.hv)
			}
		}
	}
	for ; f < n; f++ {
		hv := Mix64(streams[f].pre^m) >> 11
		b := hv >> 52
		mu := hv<<1 + 1 - b + (b&hv&1)<<1
		if s := uint(mu>>42) - invNormTailSlots; s < central {
			e := &invNormTab[s+invNormTailSlots]
			dst[f] = e[0] + float64(mu&fracMask)*(0x1p-42)*e[1]
		} else {
			dst[f] = gaussTail(hv)
		}
	}
}

// FillGaussRows fills one row per dimension in dims: row r covers
// dst[r*k : (r+1)*k] with streams[f].At(dims[r]), k = len(streams). The
// batch signing path fills tens of thousands of consecutive rows; when the
// vector prep kernels cover the row width it fills them in blocks
// (fillGaussRowsPrep), otherwise it calls FillGaussRow once per row.
func FillGaussRows(dst []float64, streams []GaussStream, dims []uint32) {
	k := len(streams)
	if kernel.GaussPrepSize(k) && len(dims) >= 8 {
		fillGaussRowsPrep(dst, streams, dims)
		return
	}
	for r, d := range dims {
		FillGaussRow(dst[r*k:r*k+k], streams, uint64(d))
	}
}

// gaussTail is the out-of-table branch of the hand-inlined gaussianFromHash:
// reconstruct u from the hash bits and evaluate the exact inverse CDF. Kept
// out of line so the hot central path stays small.
func gaussTail(hv uint64) float64 {
	u := (float64(hv) + 0.5) / (1 << 53)
	return InvNormCDF(u)
}

// fillGaussRowsPrep is FillGaussRows split into three passes over blocks of
// rows: one vector kernel computes every lane's hash and exact half-unit slot
// value (pure integer work, four wide), a second does the table interpolation
// four lanes at a time while flagging tail lanes in a bitmap, and a sparse
// sweep overwrites the flagged lanes (~3% of draws) with the exact tail
// evaluation. The scratch blocks are sized to stay cache-resident, and the
// result is bit-identical to FillGaussRow: the interpolation kernel applies
// the same rounding sequence to the same hv/mu pairs, and tail lanes go
// through the identical gaussTail call.
func fillGaussRowsPrep(dst []float64, streams []GaussStream, dims []uint32) {
	k := len(streams)
	pres := make([]uint64, k)
	for f, s := range streams {
		pres[f] = s.pre
	}
	const blockRows = 256
	bn := blockRows
	if len(dims) < bn {
		bn = len(dims)
	}
	hvb := make([]uint64, bn*k)
	mub := make([]uint64, bn*k)
	tails := make([]byte, (bn*k/4+7)&^7) // one bit per lane, padded to whole words
	for r0 := 0; r0 < len(dims); r0 += blockRows {
		r1 := r0 + blockRows
		if r1 > len(dims) {
			r1 = len(dims)
		}
		n := (r1 - r0) * k // multiple of 4: GaussPrepSize requires k%4 == 0
		kernel.GaussPrep(hvb[:n], mub[:n], pres, dims[r0:r1])
		out := dst[r0*k : r0*k+n : r0*k+n]
		kernel.GaussInterp(out, mub[:n], tails, invNormTab[:], invNormTailSlots)
		ng := n / 4
		clear(tails[ng : (ng+7)&^7]) // drop stale flags from a larger previous block
		for c := 0; c < (ng+7)&^7; c += 8 {
			if binary.LittleEndian.Uint64(tails[c:c+8]) == 0 {
				continue
			}
			for o := c; o < c+8; o++ {
				m := tails[o]
				for m != 0 {
					i := o*4 + bits.TrailingZeros8(m)
					out[i] = gaussTail(hvb[i])
					m &= m - 1
				}
			}
		}
	}
}

// FillHashRow fills dst[f] = streams[f].At(elem) for f in [0, len(dst)).
func FillHashRow(dst []uint64, streams []HashStream, elem uint64) {
	m := elem * 0xA0761D6478BD642F
	n := len(dst)
	streams = streams[:n]
	f := 0
	for ; f+4 <= n; f += 4 {
		dst[f] = Mix64(streams[f].pre ^ m)
		dst[f+1] = Mix64(streams[f+1].pre ^ m)
		dst[f+2] = Mix64(streams[f+2].pre ^ m)
		dst[f+3] = Mix64(streams[f+3].pre ^ m)
	}
	for ; f < n; f++ {
		dst[f] = Mix64(streams[f].pre ^ m)
	}
}

// Acklam's rational approximation of the inverse normal CDF (max relative
// error 1.15e-9): a central rational polynomial for p ∈ [plow, 1−plow] and a
// sqrt(-2·log p) transformed rational in the two tails.
const invNormPLow = 0.02425

var invNormA = [6]float64{
	-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
	1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
}

var invNormB = [5]float64{
	-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
	6.680131188771972e+01, -1.328068155288572e+01,
}

var invNormC = [6]float64{
	-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
	-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
}

var invNormD = [4]float64{
	7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
	3.754408661907416e+00,
}

// InvNormCDF returns Φ⁻¹(p), the standard normal quantile of p ∈ (0, 1).
func InvNormCDF(p float64) float64 {
	a, b, c, d := &invNormA, &invNormB, &invNormC, &invNormD
	switch {
	case p < invNormPLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-invNormPLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// KeyedHash returns a 64-bit hash determined by the key triple. Used by
// MinHash to rank universe elements per hash function.
func KeyedHash(seed, fn, elem uint64) uint64 {
	return Mix3(seed, fn, elem)
}
