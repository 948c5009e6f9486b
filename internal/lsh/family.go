// Package lsh implements Locality Sensitive Hashing for cosine and Jaccard
// similarity, and the LSH index (hash tables keyed by concatenated hash
// values) that the size estimators of the paper piggyback on.
//
// The central extension over a vanilla LSH index — §4.1.1 of the paper — is
// that every bucket carries its member count b_j, and each table maintains
// N_H = Σ_j C(b_j, 2), the number of vector pairs co-located in a bucket.
// Tables also support sampling a uniform random pair from stratum H (pairs
// sharing a bucket) in O(log #buckets) time.
//
// # The signature engine
//
// Hash families are stateless: Hash(fn, v) materializes hyperplane
// components (SimHash) or element ranks (MinHash) on demand from keyed
// streams, so no O(d) state is ever stored per function. Naively, building
// an index evaluates those streams once per (vector, function, entry) —
// O(n·ℓ·k·nnz) keyed-stream calls. Build, InsertBatch and the benchmarks
// instead go through the batched signature engine (engine.go), which hashes
// in dimension-major order: each distinct dimension's ℓ·k stream values are
// computed exactly once and vectors are signed by streaming their entries
// against the cached rows. The engine is proven byte-identical to the
// per-vector path by engine_test.go.
//
// # Bucket keys
//
// A table's bucket key is the concatenation of its k hash values. Whenever
// k·Bits() ≤ 64 — SimHash up to k = 64, MinHash up to k = 2 — keys live in
// a single uint64 and tables index buckets by machine word, allocation
// free. Wider configurations fall back to packed big-endian strings; every
// Jaccard table with k ≥ 3 is one. Build, merge, lookup and restore are
// written once, generic over both key types (build.go, lookup.go). KeyOf,
// BucketIDs and ForEachBucket always speak the canonical string form;
// SameBucket, Query and the bipartite matcher use word compares in narrow
// mode.
//
// # Snapshots
//
// Mutation is separated from reading: Index owns a pending delta that
// Insert/InsertBatch append to, and Snapshot merges the delta into a fresh
// immutable Snapshot published by one atomic pointer store (snapshot.go,
// dynamic.go). Tables are frozen at publication and never mutated, so
// queries, sampling and estimators run lock-free against whatever version
// they hold.
package lsh

import (
	"math"

	"lshjoin/internal/vecmath"
)

// Family is a locality-sensitive hash family for some similarity measure.
// Implementations are stateless given their seed: Hash(fn, v) is a pure
// function, so hash functions are addressed by index and never stored.
type Family interface {
	// Name identifies the family (e.g. "simhash", "minhash").
	Name() string
	// Sim returns the similarity measure the family is sensitive to.
	Sim(u, v vecmath.Vector) float64
	// Hash evaluates hash function fn on v. The result uses Bits() low bits.
	Hash(fn int, v vecmath.Vector) uint64
	// Bits is the width in bits of each hash value (1 for sign random
	// projection, up to 64 for MinHash).
	Bits() int
	// CollisionProb returns p(s) = P(h(u) = h(v)) given sim(u,v) = s.
	CollisionProb(s float64) float64
	// SimFromCollisionProb inverts CollisionProb (clamped to valid range).
	SimFromCollisionProb(p float64) float64
}

// SimHash is Charikar's sign-random-projection family for cosine similarity:
// h(v) = [a·v ≥ 0] with a a random gaussian hyperplane. Collision probability
// is p(s) = 1 − arccos(s)/π.
//
// Hyperplane components are materialized on demand from a keyed gaussian
// stream, so a function over a 100k-dimensional space costs no storage.
type SimHash struct {
	seed uint64
}

// NewSimHash returns the family determined by seed.
func NewSimHash(seed uint64) SimHash { return SimHash{seed: seed} }

// Name implements Family.
func (SimHash) Name() string { return "simhash" }

// Bits implements Family: sign projections emit a single bit.
func (SimHash) Bits() int { return 1 }

// Sim implements Family with cosine similarity.
func (SimHash) Sim(u, v vecmath.Vector) float64 { return vecmath.Cosine(u, v) }

// Hash implements Family: the sign bit of the projection of v onto the
// fn-th random hyperplane.
func (f SimHash) Hash(fn int, v vecmath.Vector) uint64 {
	var dot float64
	for _, e := range v.Entries() {
		dot += float64(e.Weight) * gaussComponent(f.seed, uint64(fn), uint64(e.Dim))
	}
	if dot >= 0 {
		return 1
	}
	return 0
}

// CollisionProb implements Family: p(s) = 1 − arccos(s)/π.
func (SimHash) CollisionProb(s float64) float64 {
	if s > 1 {
		s = 1
	}
	if s < -1 {
		s = -1
	}
	return 1 - math.Acos(s)/math.Pi
}

// SimFromCollisionProb implements Family: s = cos(π(1−p)).
func (SimHash) SimFromCollisionProb(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return math.Cos(math.Pi * (1 - p))
}

// MinHash is the min-wise independent permutation family for Jaccard
// similarity over vector supports: h(v) = argmin over support dims of a keyed
// hash. Collision probability is exactly p(s) = s, the idealized Definition 3
// of the paper.
type MinHash struct {
	seed uint64
	bits int
}

// NewMinHash returns a MinHash family with 32-bit hash values.
func NewMinHash(seed uint64) MinHash { return MinHash{seed: seed, bits: 32} }

// Name implements Family.
func (MinHash) Name() string { return "minhash" }

// Bits implements Family.
func (f MinHash) Bits() int { return f.bits }

// Sim implements Family with Jaccard similarity of supports.
func (MinHash) Sim(u, v vecmath.Vector) float64 { return vecmath.Jaccard(u, v) }

// Hash implements Family: the minimum keyed hash over support dimensions,
// truncated to Bits() bits. The empty vector hashes to a sentinel derived
// from fn so all empty vectors share buckets per function.
func (f MinHash) Hash(fn int, v vecmath.Vector) uint64 {
	es := v.Entries()
	if len(es) == 0 {
		return hash64(f.seed, uint64(fn), math.MaxUint64) >> (64 - f.bits)
	}
	best := uint64(math.MaxUint64)
	for _, e := range es {
		if h := hash64(f.seed, uint64(fn), uint64(e.Dim)); h < best {
			best = h
		}
	}
	return best >> (64 - f.bits)
}

// CollisionProb implements Family: exactly the Jaccard similarity (truncation
// collisions are negligible at 32 bits).
func (MinHash) CollisionProb(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// SimFromCollisionProb implements Family.
func (MinHash) SimFromCollisionProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
