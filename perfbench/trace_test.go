package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		sp(1, 0, "op", 0, 100),
		sp(2, 1, "a", 10, 30),
		sp(3, 1, "b", 20, 50),   // overlaps a: the union counts once
		sp(4, 1, "c", 90, 120),  // only 90..100 lies inside op
		sp(5, 2, "a.x", 12, 18), // a grandchild: charged to a, not op
		sp(6, 0, "other", 0, 40),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "op" || rows[0].Self != 50 || rows[0].Total != 100 {
		t.Errorf("first layer row %+v, want op with self 50 of 100", rows[0])
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("call", root, 7)
	tr.end(child)
	open := tr.begin("unfinished", root, 7)
	_ = open
	tr.end(root)
	got := tr.closed()
	if len(got) != 2 {
		t.Fatalf("closed spans = %d, want 2 (unfinished spans are dropped)", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Op != 7 || got[0].Name != "op" {
		t.Errorf("spans %+v: want call under op, op id 7", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
