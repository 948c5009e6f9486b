package core

import (
	"runtime"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

func parallelTestData(n int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	data := make([]vecmath.Vector, n)
	for i := range data {
		nnz := 3 + rng.Intn(10)
		ds := make([]uint32, nnz)
		for j := range ds {
			ds[j] = uint32(rng.Intn(400))
		}
		data[i] = vecmath.FromDims(ds)
	}
	return data
}

// TestEstimateDeterministicAcrossGOMAXPROCS pins the contract of the
// sharded samplers: for a fixed RNG seed, LSH-SS and the median estimator
// return bit-identical estimates whether the shards run on one thread or
// several, and across repeated runs.
func TestEstimateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	data := parallelTestData(1500, 7)
	idx, err := lsh.BuildSnapshot(data, lsh.NewSimHash(3), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewMergedLSHSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	median, err := NewMergedMedianSS(lsh.SingleSnapshot(idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	type run struct{ single, median float64 }
	estimate := func() run {
		a, err := single.Estimate(0.5, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		b, err := median.Estimate(0.5, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		return run{a, b}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	ref := estimate()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			if got := estimate(); got != ref {
				t.Fatalf("GOMAXPROCS=%d rep %d: estimates %+v differ from single-threaded %+v",
					procs, rep, got, ref)
			}
		}
	}
}

// TestMergeAdaptiveReplaysSequentialLoop feeds hand-built shard outcomes
// through the merge and checks it reproduces Lipton's loop over the
// concatenated stream.
func TestMergeAdaptiveReplaysSequentialLoop(t *testing.T) {
	cases := []struct {
		name       string
		outs       []lShard
		delta, max int
		hits, tkn  int
		reliable   bool
	}{
		{
			name: "delta reached in second shard",
			outs: []lShard{
				{hitPos: []int32{1}, taken: 4},
				{hitPos: []int32{0, 2}, taken: 4},
			},
			delta: 3, max: 8,
			hits: 3, tkn: 7, reliable: true,
		},
		{
			name: "budget exhausted",
			outs: []lShard{
				{hitPos: []int32{0}, taken: 4},
				{taken: 4},
			},
			delta: 5, max: 8,
			hits: 1, tkn: 8, reliable: false,
		},
		{
			name: "shard exhaustion ends stream",
			outs: []lShard{
				{hitPos: []int32{0}, taken: 2, exhausted: true},
				{hitPos: []int32{0, 1, 2}, taken: 4},
			},
			delta: 4, max: 8,
			hits: 1, tkn: 2, reliable: false,
		},
		{
			name: "delta on the final draw of a shard",
			outs: []lShard{
				{hitPos: []int32{0, 1}, taken: 2},
			},
			delta: 2, max: 8,
			hits: 2, tkn: 2, reliable: true,
		},
	}
	for _, c := range cases {
		res := mergeAdaptive(c.outs, c.delta, c.max)
		if res.Hits != c.hits || res.Taken != c.tkn || res.Reliable != c.reliable {
			t.Errorf("%s: got hits=%d taken=%d reliable=%v, want hits=%d taken=%d reliable=%v",
				c.name, res.Hits, res.Taken, res.Reliable, c.hits, c.tkn, c.reliable)
		}
	}
}

// TestShardQuotaPartitions sanity-checks the deterministic shard layout.
func TestShardQuotaPartitions(t *testing.T) {
	for _, m := range []int{1, 7, 255, 256, 1000, 5000, 100000} {
		s := sampleShards(m)
		if s < 1 || s > 16 {
			t.Fatalf("m=%d: shard count %d out of range", m, s)
		}
		total := 0
		for i := 0; i < s; i++ {
			total += shardQuota(m, s, i)
		}
		if total != m {
			t.Fatalf("m=%d: quotas sum to %d", m, total)
		}
	}
}
