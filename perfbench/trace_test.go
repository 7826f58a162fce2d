package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	at := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	mk := func(id, parent int64, a, b int) span {
		s, e := at(a, b)
		return span{ID: id, Parent: parent, Name: "s", Start: s, End: e}
	}
	spans := []span{
		mk(1, 0, 0, 100),   // root
		mk(2, 1, 10, 30),   // child
		mk(3, 1, 20, 50),   // overlaps child 2: union 10..50 = 40
		mk(4, 1, 90, 120),  // runs past the root: clipped to 90..100 = 10
		mk(5, 2, 12, 18),   // grandchild: counts against 2, not 1
		mk(6, 0, 200, 210), // unrelated root without children
	}
	want := []time.Duration{50, 14, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("span %d self time = %v, want %v", spans[i].ID, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.begin("root", 0, 7)
	_, endChild := tr.begin("child", root, 7)
	endChild()
	endRoot()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
	var nilTracer *tracer
	if id, end := nilTracer.begin("x", 0, 0); id != 0 {
		t.Error("nil tracer issued a span")
	} else {
		end()
	}
}
