package core

import (
	"fmt"
	"testing"

	"lshjoin/internal/dataset"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// BenchmarkSampleH times SampleH's two paths, flat scoring (its build
// included) and the weight-tree descent, at coverages m_H/N_H of 1, 2 and
// 25 over a 20k DBLP-like corpus: at k = 20 (N_H = 808, the stratum of the
// paper's default setting) and at k = 14 (N_H = 23,854). flatCover sits
// at the lowest coverage where the flat path is no slower. The first
// sub-benchmark after a corpus set-up reads high; compare the two paths
// of one case in a run of their own (-bench 'SampleH/small/cover=1/').
func BenchmarkSampleH(b *testing.B) {
	ds, err := dataset.DBLPLike(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []struct {
		name string
		k    int
	}{{"small", 20}, {"large", 14}} {
		snap, err := lsh.BuildSnapshot(ds.Vectors, lsh.NewSimHash(1), st.k, 1)
		if err != nil {
			b.Fatal(err)
		}
		tab := snap.Table(0)
		nh := tab.NH()
		for _, cover := range []int{1, 2, 25} {
			e, err := NewMergedLSHSS(lsh.SingleSnapshot(snap), nil, WithSampleSizes(cover*int(nh), 1))
			if err != nil {
				b.Fatal(err)
			}
			descent := *e
			descent.strat = descentOnly{e.strat}
			name := fmt.Sprintf("%s/cover=%d", st.name, cover)
			b.Run(name+"/flat", func(b *testing.B) {
				rng := xrand.New(1)
				for i := 0; i < b.N; i++ {
					e.drawH(nh, rng, newFlatH(tab, nh, 0.5, e.sim, e.data).draw)
				}
			})
			b.Run(name+"/descent", func(b *testing.B) {
				rng := xrand.New(1)
				for i := 0; i < b.N; i++ {
					descent.sampleH(0.5, rng)
				}
			})
		}
	}
}
