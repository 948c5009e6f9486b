package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{250, 0.9, 225},
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{1, 0.5, 1},
		{7, 0.5, 4},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want refusal", 100*tc.p, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*tc.p, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was not refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBlockMedian: a metric is the median over blocks of each block's
// percentile, so one disturbed block of three does not move it, and every
// block must allow the percentile on its own.
func TestBlockMedian(t *testing.T) {
	slow := seq(100)
	for i := range slow {
		slow[i] *= 10
	}
	c := &opClass{}
	for b, xs := range [][]float64{seq(100), slow, seq(100)} {
		for _, x := range xs {
			c.lat, c.blk = append(c.lat, x), append(c.blk, 2*b) // block ids need not be dense
		}
	}
	blocks := c.byBlock()
	if len(blocks) != 3 || len(blocks[1]) != 100 || blocks[1][0] != 1000 {
		t.Fatalf("byBlock grouped %d blocks, want 3 in block order", len(blocks))
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}} {
		got, per, err := blockPercentile(blocks, tc.p)
		if err != nil || got != tc.want || per[1] != 10*tc.want {
			t.Errorf("p%g over blocks = %v (per block %v, %v), want %v", 100*tc.p, got, per, err, tc.want)
		}
	}
	blocks[2] = blocks[2][:99]
	if _, _, err := blockPercentile(blocks, 0.9); err == nil {
		t.Error("p90 of a block of 99 samples was not refused")
	}
	if _, _, err := blockPercentile(nil, 0.5); err == nil {
		t.Error("percentile of no blocks was not refused")
	}
}

func TestBlocksFor(t *testing.T) {
	for _, tc := range []struct{ perClass, want int }{{50, 1}, {100, 1}, {299, 2}, {300, 3}, {500, 5}, {5000, 5}} {
		if got := blocksFor(fullSizes, tc.perClass); got != tc.want {
			t.Errorf("blocksFor(%d) = %d, want %d", tc.perClass, got, tc.want)
		}
	}
}

func TestRelErrCeiling(t *testing.T) {
	ceil := []float64{0.5, 0.4, 0.3, 0.2, 0.35}
	if f := relErrFails([]float64{0.5, 0.4, 0.3, 0.2}, 0.35, ceil); len(f) != 0 {
		t.Errorf("values at their ceilings refused: %v", f)
	}
	if f := relErrFails([]float64{0.1, 0.41, 0.1, 0.1}, 0.18, ceil); len(f) != 1 {
		t.Errorf("one threshold over its ceiling: %d failures %v, want 1", len(f), f)
	}
	if f := relErrFails([]float64{0.5, 0.4, 0.3, 0.2}, 0.36, ceil); len(f) != 1 {
		t.Errorf("overall over its ceiling: %d failures %v, want 1", len(f), f)
	}
	if f := relErrFails([]float64{9, 9, 9, 9}, 9, nil); len(f) != 0 {
		t.Errorf("nil ceilings checked: %v", f)
	}
	if len(fullSizes.relErrMax) != len(paperTaus)+1 {
		t.Errorf("the benchmark's sizes hold %d rel_err ceilings, want one per threshold and one overall", len(fullSizes.relErrMax))
	}
}
