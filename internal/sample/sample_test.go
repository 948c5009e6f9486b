package sample

import (
	"math"
	"testing"

	"lshjoin/internal/xrand"
)

func TestUniformPairDistinct(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 10000; trial++ {
		i, j := UniformPair(rng, 5)
		if i == j {
			t.Fatal("UniformPair returned identical indices")
		}
		if i < 0 || i >= 5 || j < 0 || j >= 5 {
			t.Fatalf("pair (%d,%d) out of range", i, j)
		}
	}
}

func TestUniformPairUniform(t *testing.T) {
	rng := xrand.New(2)
	const n, draws = 6, 150000
	counts := map[[2]int]int{}
	for trial := 0; trial < draws; trial++ {
		i, j := UniformPair(rng, n)
		if i > j {
			i, j = j, i
		}
		counts[[2]int{i, j}]++
	}
	pairs := n * (n - 1) / 2
	if len(counts) != pairs {
		t.Fatalf("saw %d distinct pairs, want %d", len(counts), pairs)
	}
	want := float64(draws) / float64(pairs)
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v: %d draws, want ~%.0f", p, c, want)
		}
	}
}

func TestUniformPairPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=1")
		}
	}()
	UniformPair(xrand.New(1), 1)
}

func TestRejectPair(t *testing.T) {
	rng := xrand.New(3)
	// Accept only pairs with i+j even.
	i, j, ok := RejectPair(rng, 100, func(i, j int) bool { return (i+j)%2 == 0 }, 1000)
	if !ok {
		t.Fatal("rejection failed on an easy predicate")
	}
	if (i+j)%2 != 0 {
		t.Fatal("accepted pair violates predicate")
	}
	// Impossible predicate must give ok=false.
	if _, _, ok := RejectPair(rng, 10, func(i, j int) bool { return false }, 50); ok {
		t.Fatal("impossible predicate accepted")
	}
}

func TestAdaptiveStopsOnDelta(t *testing.T) {
	calls := 0
	r := Adaptive(5, 1000, func() (bool, bool) {
		calls++
		return true, true // every sample hits
	})
	if !r.Reliable || r.Hits != 5 || r.Taken != 5 {
		t.Errorf("result %+v, want 5 hits in 5 draws, reliable", r)
	}
	if calls != 5 {
		t.Errorf("draw called %d times", calls)
	}
}

func TestAdaptiveStopsOnBudget(t *testing.T) {
	r := Adaptive(10, 100, func() (bool, bool) { return false, true })
	if r.Reliable || r.Hits != 0 || r.Taken != 100 {
		t.Errorf("result %+v, want unreliable with 100 draws", r)
	}
}

func TestAdaptiveStopsOnExhaustion(t *testing.T) {
	n := 0
	r := Adaptive(10, 100, func() (bool, bool) {
		n++
		return true, n <= 3
	})
	if r.Taken != 3 || r.Hits != 3 || r.Reliable {
		t.Errorf("result %+v, want 3 taken then stop", r)
	}
}

func TestAdaptiveHitRate(t *testing.T) {
	rng := xrand.New(7)
	const p = 0.3
	r := Adaptive(300, 1<<20, func() (bool, bool) { return rng.Float64() < p, true })
	if !r.Reliable {
		t.Fatal("should reach 300 hits")
	}
	est := float64(r.Hits) / float64(r.Taken)
	if math.Abs(est-p) > 0.05 {
		t.Errorf("estimated rate %v, want ~%v", est, p)
	}
}

func TestWithoutReplacement(t *testing.T) {
	rng := xrand.New(9)
	out, err := WithoutReplacement(rng, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 10)
	for _, v := range out {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", out)
		}
		seen[v] = true
	}
	if _, err := WithoutReplacement(rng, 5, 6); err == nil {
		t.Error("m > n accepted")
	}
	if out, err := WithoutReplacement(rng, 5, 0); err != nil || len(out) != 0 {
		t.Error("m = 0 should return empty")
	}
}

func TestWithoutReplacementUniform(t *testing.T) {
	rng := xrand.New(11)
	const n, m, draws = 8, 3, 60000
	counts := make([]int, n)
	for trial := 0; trial < draws; trial++ {
		out, err := WithoutReplacement(rng, n, m)
		if err != nil {
			t.Fatal(err)
		}
		dup := map[int]bool{}
		for _, v := range out {
			if dup[v] {
				t.Fatalf("duplicate in %v", out)
			}
			dup[v] = true
			counts[v]++
		}
	}
	want := float64(draws) * m / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d selected %d times, want ~%.0f", i, c, want)
		}
	}
}
