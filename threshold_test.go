package lshjoin

import (
	"fmt"
	"math"
	"testing"
)

// The exact paths accept exactly the thresholds the estimators accept:
// anything outside (0, 1], NaN included, is an error on every collection
// surface and both measures — never a panic, and never a count of every
// pair or of none.
func TestExactJoinRejectsInvalidThresholds(t *testing.T) {
	vecs := fixtureVectors(t, 60)
	for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
		t.Run(fmt.Sprintf("measure=%d", measure), func(t *testing.T) {
			opt := Options{K: 4, Seed: 3, Measure: measure}
			coll, err := New(vecs, opt)
			if err != nil {
				t.Fatal(err)
			}
			shrd, err := NewSharded(vecs, Options{K: 4, Seed: 3, Measure: measure, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			rem, err := Connect(startShardServers(t, 2, opt), opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rem.Close() })
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
			exact := map[string]func(float64) (int64, error){
				"Collection":        coll.ExactJoinSize,
				"ShardedCollection": shrd.ExactJoinSize,
				"RemoteCollection":  rem.ExactJoinSize,
			}
			pairs := map[string]func(float64) ([]JoinPair, error){
				"Collection":        coll.JoinPairs,
				"ShardedCollection": shrd.JoinPairs,
			}
			for _, tau := range []float64{0, -0.5, 1.5, math.NaN()} {
				for name, f := range exact {
					if n, err := f(tau); err == nil {
						t.Errorf("%s.ExactJoinSize(%v) = %d with a nil error", name, tau, n)
					}
				}
				for name, f := range pairs {
					if ps, err := f(tau); err == nil {
						t.Errorf("%s.JoinPairs(%v) = %d pairs with a nil error", name, tau, len(ps))
					}
				}
			}
		})
	}
}
