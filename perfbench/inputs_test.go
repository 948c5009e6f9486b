package main

import (
	"slices"
	"testing"
	"time"

	"lshjoin"
)

func sameVectors(a, b []lshjoin.Vector) bool {
	return slices.EqualFunc(a, b, func(u, v lshjoin.Vector) bool { return slices.Equal(u.Entries(), v.Entries()) })
}

func TestInputsDeterministic(t *testing.T) {
	cfg := config{seed: 7, dur: time.Second, sz: testSizes}
	for _, w := range workloads {
		a, err := genInputs(w.name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genInputs(w.name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameVectors(a.corpus, b.corpus) || !sameVectors(a.pool, b.pool) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		other := cfg
		other.seed = 8
		c, err := genInputs(w.name, other)
		if err != nil {
			t.Fatal(err)
		}
		if sameVectors(a.corpus, c.corpus) {
			t.Errorf("%s: seeds 7 and 8 generate the same corpus", w.name)
		}
	}
	for i := 0; i < 100; i++ {
		if opSeed(7, streamEst, i) != opSeed(7, streamEst, i) || pick(7, streamEst, i, 1000) != pick(7, streamEst, i, 1000) {
			t.Fatalf("op %d: seed or pick not a pure function of its arguments", i)
		}
		if opSeed(7, streamEst, i) == 0 {
			t.Fatalf("op %d: estimator seed 0 would request an automatic seed", i)
		}
	}
}
