package main

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "ingest", ID: 1, Start: 0, End: 100},
		// Two shards emit concurrently: their spans overlap in [30, 40].
		{Name: "tee", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "tee", ID: 3, Parent: 1, Start: 30, End: 60},
		// Nested under the first tee, and a grandchild of ingest: it must
		// be subtracted from its parent only.
		{Name: "fold", ID: 4, Parent: 2, Start: 15, End: 25},
		// A child that overruns its parent is clipped to it.
		{Name: "tee", ID: 5, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// ingest: 100 - (union [10,60] = 50) - (clipped [90,100] = 10) = 40.
	if got := self["ingest"]; got != 40 {
		t.Errorf("ingest self = %d, want 40", got)
	}
	// tee: (30-10) + 30 + 30 = 80.
	if got := self["tee"]; got != 80 {
		t.Errorf("tee self = %d, want 80", got)
	}
	if got := self["fold"]; got != 10 {
		t.Errorf("fold self = %d, want 10", got)
	}
}

func TestCover(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 20}, {2, 4}}
	if got := cover(iv, 0, 15); got != 14 { // [0,4] ∪ [5,15]
		t.Errorf("cover = %d, want 14", got)
	}
	if got := cover(nil, 0, 15); got != 0 {
		t.Errorf("cover of nothing = %d", got)
	}
}

func TestTracerNestsDriverSpans(t *testing.T) {
	tr := newTracer("w")
	outer := tr.start("outer")
	inner := tr.start("inner")
	inner.end(3)
	sibling := tr.start("sibling")
	sibling.end(1)
	outer.end(4)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[0].ID {
		t.Errorf("children not under outer: %+v", tr.spans)
	}
	if tr.spans[0].Parent != 0 || tr.spans[0].Count != 4 || tr.spans[1].Count != 3 {
		t.Errorf("bad root or counts: %+v", tr.spans)
	}
	// A nil tracer is the untraced run: every call is a no-op.
	var off *tracer
	off.start("x").end(1)
	if off.onlineMetrics() != nil || off.storeMetrics() != nil {
		t.Error("nil tracer handed out metrics")
	}
}
