package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 2, Name: "a.inner", Start: ms(15), End: ms(20)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past root
		{ID: 6, Name: "other", Start: ms(0), End: ms(7)},
	}
	want := map[int]time.Duration{
		1: ms(100 - 50 - 10), // children cover [10,60] and [90,100]
		2: ms(30 - 5),
		3: ms(5),
		4: ms(30),
		5: ms(30),
		6: ms(7),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
	// Self times of a tree without overlap or overrun add up to the root.
	tree := spans[:4]
	tree[3].Start, tree[3].End = ms(40), ms(60)
	var sum time.Duration
	for _, d := range selfTimes(tree) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	if by := layerSelf(spans); by["a.inner"] != ms(5) || by["other"] != ms(7) {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.add("y", 0, 1, time.Now(), time.Now()) != 0 {
		t.Fatal("nil tracer returned a span id")
	}
	live := newTracer()
	root := live.begin("root", 0, 1)
	kid := live.begin("kid", root, 1)
	live.end(kid)
	live.end(root)
	if len(live.spans) != 2 || live.spans[1].Parent != root || live.spans[0].End < live.spans[1].End {
		t.Fatalf("spans = %+v", live.spans)
	}
}
