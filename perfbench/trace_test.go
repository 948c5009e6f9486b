package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "child", start: 10, end: 40, parent: 0},
		{name: "grandchild", start: 20, end: 30, parent: 1},
		{name: "child", start: 50, end: 60, parent: 0},
	}
	self := selfTimes(spans)
	for i, want := range []int64{60, 20, 10, 10} {
		if self[i] != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, self[i], want)
		}
	}
}

func TestSelfTimeParallelChildren(t *testing.T) {
	spans := []span{
		{name: "capture", start: 0, end: 100, parent: -1},
		{name: "fetch", start: 10, end: 50, parent: 0}, // two fetches overlap:
		{name: "fetch", start: 30, end: 70, parent: 0}, // their union is 10..70
		{name: "fetch", start: 40, end: 45, parent: 0}, // inside both
		{name: "late", start: 90, end: 130, parent: 0}, // outlives its parent: clipped to 90..100
	}
	if got := selfTimes(spans)[0]; got != 100-60-10 {
		t.Errorf("capture self time %d, want %d", got, 100-60-10)
	}
	agg := aggregate(spans)
	if st := agg["fetch"]; st.calls != 3 || st.totalNs != 85 {
		t.Errorf("fetch aggregate %+v, want 3 calls totalling 85", *st)
	}
}
