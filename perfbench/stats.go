package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples. A tail
// percentile (p > 0.5) is refused unless at least minBeyond samples lie
// strictly beyond its rank, so a reported tail never rests on a handful of
// outliers.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty class", 100*p)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if beyond := n - rank - 1; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// blockPercentile takes the p-quantile of every block's samples and returns
// their median, with the per-block values. Every block must allow the
// percentile on its own.
func blockPercentile(blocks [][]float64, p float64) (float64, []float64, error) {
	if len(blocks) == 0 {
		return 0, nil, fmt.Errorf("percentile p%g of an empty class", 100*p)
	}
	per := make([]float64, len(blocks))
	for b, xs := range blocks {
		v, err := percentile(xs, p)
		if err != nil {
			return 0, nil, fmt.Errorf("block %d: %w", b, err)
		}
		per[b] = v
	}
	return median(per), per, nil
}

func fmtVals(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(out, "/")
}

// opClass holds the latencies and failures of one op class. Every
// percentile is taken inside one class, never over a mix of classes.
type opClass struct {
	lat       []float64 // milliseconds, one per successful measured op
	blk       []int     // each sample's block
	attempted int
	failed    int
}

// byBlock groups the class's samples by block, in block order.
func (c *opClass) byBlock() [][]float64 {
	idx := map[int]int{}
	var ids []int
	for _, b := range c.blk {
		if _, ok := idx[b]; !ok {
			idx[b] = 0
			ids = append(ids, b)
		}
	}
	sort.Ints(ids)
	for i, b := range ids {
		idx[b] = i
	}
	out := make([][]float64, len(ids))
	for i, x := range c.lat {
		out[idx[c.blk[i]]] = append(out[idx[c.blk[i]]], x)
	}
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count or definition, for the human-readable report
}
