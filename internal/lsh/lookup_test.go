package lsh

import (
	"slices"
	"sync"
	"testing"

	"lshjoin/internal/vecmath"
)

// TestLookupConcurrentPublish holds one snapshot in reader goroutines while
// the writer publishes fresh-bucket inserts, one version each, through at
// least three regrows of the bucket lookup the versions share. Every key of
// the held snapshot must keep its member ids, and every key published after
// it must stay absent from it. Run it under -race: the readers probe slots
// the writer is filling.
func TestLookupConcurrentPublish(t *testing.T) {
	idx, err := Build(randData(300, 400, 6, 71), NewSimHash(72), 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots0 := len(idx.Current().Table(0).words.slots)
	// Vectors on dimensions of their own hash to 24 fresh bits each, so
	// nearly every insert opens a bucket. Hold a version a few publishes
	// in: its first-member column has spare capacity the next versions
	// fill in place.
	fresh := make([]vecmath.Vector, 3000)
	for i := range fresh {
		fresh[i] = vecmath.FromDims([]uint32{uint32(1<<20 + i)})
	}
	for _, v := range fresh[:10] {
		idx.Insert(v)
		idx.Snapshot()
	}
	held := idx.Current()
	tab := held.Table(0)
	if len(tab.words.first) == cap(tab.words.first) {
		t.Fatal("held version has no spare first-member capacity")
	}
	type bucketIDs struct {
		key string
		ids []int32
	}
	var want []bucketIDs
	tab.ForEachBucket(func(key string, ids []int32) bool {
		want = append(want, bucketIDs{key, slices.Clone(ids)})
		return true
	})
	var later []string
	for _, v := range fresh[10:] {
		if key := held.KeyFor(0, v); tab.BucketIDs(key) == nil {
			later = append(later, key)
		}
	}

	check := func() string {
		for _, b := range want {
			if got := tab.BucketIDs(b.key); !slices.Equal(got, b.ids) {
				return "held bucket changed its ids"
			}
		}
		for _, key := range later {
			if tab.BucketIDs(key) != nil {
				return "held version found a bucket opened after it"
			}
		}
		return ""
	}
	done := make(chan struct{})
	errs := make(chan string, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if msg := check(); msg != "" {
					errs <- msg
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for _, v := range fresh[10:] {
		idx.Insert(v)
		idx.Snapshot()
	}
	close(done)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if msg := check(); msg != "" {
		t.Error(msg)
	}

	latest := idx.Current().Table(0)
	if n := len(latest.words.slots); n < 8*slots0 {
		t.Errorf("lookup grew from %d to %d slots: want at least three regrows", slots0, n)
	}
	for _, key := range later {
		if latest.BucketIDs(key) == nil {
			t.Fatal("latest version lost a bucket it opened")
		}
	}
}
