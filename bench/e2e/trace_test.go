package main

import (
	"strings"
	"testing"
)

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Parent: 0, Op: 1, Start: 0, End: 100},
		// Two overlapping children cover [10,50) once: 40.
		{Name: "a", ID: 2, Parent: 1, Op: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Op: 1, Start: 30, End: 50},
		// A child sticking out of its parent counts only inside it: [90,100).
		{Name: "c", ID: 4, Parent: 1, Op: 1, Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by the root.
		{Name: "a.x", ID: 5, Parent: 2, Op: 1, Start: 15, End: 25},
		{Name: "a.y", ID: 6, Parent: 2, Op: 1, Start: 20, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 30 - 20, 3: 20, 4: 30, 5: 10, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckSelfTimes(t *testing.T) {
	sequential := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100},
		{Name: "core.mine", ID: 2, Parent: 1, Op: 1, Start: 10, End: 60},
		{Name: "core.l2", ID: 3, Parent: 2, Op: 1, Start: 20, End: 50},
		{Name: "export.encode", ID: 4, Parent: 1, Op: 1, Start: 60, End: 90},
	}
	if err := checkSelfTimes(sequential); err != nil {
		t.Errorf("sequential spans: %v", err)
	}
	parallel := append(append([]span(nil), sequential...),
		span{Name: "export.document", ID: 5, Parent: 1, Op: 1, Start: 70, End: 80})
	if err := checkSelfTimes(parallel); err == nil || !strings.Contains(err.Error(), "op 1") {
		t.Errorf("overlapping siblings were not reported: %v", err)
	}
	if err := checkSelfTimes(sequential[1:]); err == nil {
		t.Error("an operation without a root span was accepted")
	}
}

func TestTracerRecordsSpansAndCounts(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 3)
	child := tr.begin("csvio.read", root, 3)
	tr.count(child, "bytes", 5)
	tr.count(child, "bytes", 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Counts["bytes"] != 12 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].layer() != "csvio" || spans[0].End < spans[1].End {
		t.Errorf("layer %q, root end %d, child end %d", spans[1].layer(), spans[0].End, spans[1].End)
	}
}

func TestPerLayerAggregation(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 10e6},
		{Name: "http.patterns_page", ID: 2, Parent: 1, Op: 1, Start: 0, End: 2e6},
		{Name: "http.patterns_page", ID: 3, Parent: 1, Op: 1, Start: 2e6, End: 5e6},
		{Name: "op", ID: 4, Op: 2, Start: 0, End: 10e6},
		{Name: "http.patterns_page", ID: 5, Parent: 4, Op: 2, Start: 0, End: 1e6},
	}
	got := perOp(spans, durMs, "http.patterns_page")
	if len(got) != 2 || got[0] != 5 || got[1] != 1 {
		t.Errorf("per-op page totals = %v, want [5 1]", got)
	}
	for i := range spans {
		spans[i].Counts = map[string]float64{"num": 1, "den": 4}
	}
	if v, n := share(spans, countOf("num"), countOf("den"), "http.patterns_page"); v != 0.25 || n != 3 {
		t.Errorf("share = %v over %d calls, want 0.25 over 3", v, n)
	}
}
