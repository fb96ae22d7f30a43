package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},   // root
		{name: 1, parent: 0, start: 10, end: 40},    // child a
		{name: 1, parent: 0, start: 30, end: 60},    // child b overlaps a
		{name: 1, parent: 0, start: 90, end: 130},   // child c runs past the root
		{name: 2, parent: 1, start: 15, end: 20},    // grandchild inside a
		{name: 1, parent: 0, start: 50, end: 55},    // child inside b
		{name: 3, parent: -1, start: 200, end: 250}, // unrelated root
	}
	self := selfTimes(spans)
	// Root: children cover [10,60] and [90,100] = 60 of 100.
	want := []int64{40, 25, 30, 40, 5, 5, 50}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d self time %d, want %d", i, self[i], w)
		}
	}
}

func TestSelfTimeSkipsUnfinishedSpans(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: -1}, // never ended
	}
	self := selfTimes(spans)
	if self[0] != 100 || self[1] != 0 {
		t.Fatalf("self times %v, want [100 0]", self)
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {12, 14}, {20, 21}}
	if got := unionLength(iv); got != 3+9+1 {
		t.Fatalf("union length %d, want 13", got)
	}
}

func TestTracerRecordsSpansAndSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 7, -1)
	child := tr.begin("layer", 7, root.idx)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	if n := tr.durations("layer").n(); n != 1 {
		t.Fatalf("%d layer durations, want 1", n)
	}
	self := tr.selfBy("request")
	if self.n() != 1 || self.v[0] < 0 || self.v[0] > tr.durations("request").v[0]-2000 {
		t.Fatalf("request self time %v of %v", self.v, tr.durations("request").v)
	}

	tr.on.Store(false)
	h := tr.begin("off", 0, -1)
	if tr.end(h) != 0 || tr.durations("off").n() != 0 {
		t.Fatal("a switched-off tracer recorded a span")
	}

	var none *tracer
	none.end(none.begin("x", 0, none.parent()))
	none.count("x", 1)
	none.setParent(3)
	if none.durations("x").n() != 0 {
		t.Fatal("nil tracer recorded a span")
	}
}
