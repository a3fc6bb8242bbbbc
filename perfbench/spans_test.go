package main

import (
	"context"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},   // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // runs past the parent's end
		{ID: 5, Parent: 3, Start: 25, End: 35},   // grandchild: not the root's child
		{ID: 6, Parent: 1, Start: 200, End: 210}, // outside the parent
		{ID: 7, Start: 0, End: 50},               // no children
	}
	want := map[int64]int64{
		1: 100 - 30 - 10, // children cover [10,40] and [90,100]
		2: 20,
		3: 20 - 10,
		4: 30,
		5: 10,
		6: 10,
		7: 50,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderLinksParents(t *testing.T) {
	r := newRecorder()
	ctx, outer := r.begin(context.Background(), "outer", "n", "t1")
	_, inner := r.begin(ctx, "inner", "n", "t1")
	r.end(inner)
	r.end(outer)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["inner"].Parent != byName["outer"].ID || byName["outer"].Parent != 0 {
		t.Errorf("parents: inner->%d outer->%d, want inner->%d outer->0",
			byName["inner"].Parent, byName["outer"].Parent, byName["outer"].ID)
	}
	if o, i := byName["outer"], byName["inner"]; i.Start < o.Start || i.End > o.End {
		t.Errorf("inner [%d,%d] not inside outer [%d,%d]", i.Start, i.End, o.Start, o.End)
	}
}
