package main

import (
	"sync"
	"testing"
	"time"
)

// TestSelfTimes checks self time on a hand-built trace: a parent whose
// children overlap (two search workers) and nest (a child with its own
// child) must be charged only for the part of its interval no child covers.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sim.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.capture", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "core.search", Start: 20, End: 60}, // two workers,
		{ID: 4, Parent: 1, Name: "core.search", Start: 30, End: 70}, // overlapping
		{ID: 5, Parent: 1, Name: "sim.sweep", Start: 80, End: 120},  // overruns its parent
		{ID: 6, Parent: 5, Name: "core.memo", Start: 85, End: 95},
		{ID: 7, Name: "benchmark.idle", Start: 200, End: 205},
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"sim.pass":       {1, 100, 100 - 10 - 50 - 20}, // covered: [0,10) [20,70) [80,100)
		"core.capture":   {1, 10, 10},
		"core.search":    {2, 80, 80},
		"sim.sweep":      {1, 40, 30},
		"core.memo":      {1, 10, 10},
		"benchmark.idle": {1, 5, 5},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("%d span names, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		w := want[st.Name]
		if st.Count != w.count || st.Total != w.total || st.Self != w.self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d", st.Name, st.Count, st.Total, st.Self, w.count, w.total, w.self)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Self < got[i].Self {
			t.Errorf("not sorted by self time: %v before %v", got[i-1], got[i])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 5}, {8, 20}}, 5},
		{0, 10, [][2]int64{{-5, 1}, {1, 2}}, 2},
		{0, 10, [][2]int64{{0, 10}, {2, 3}}, 10},
		{5, 10, [][2]int64{{0, 4}, {11, 12}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

// TestTracerLanes records from several goroutines and checks every span
// comes back once, in id order, with its parent link; a nil tracer records
// nothing.
func TestTracerLanes(t *testing.T) {
	tr := newTracer()
	root := tr.lane()
	parent := root.begin("sim.pass", 0, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := l.begin("core.search", parent.id, 1)
				l.end(s)
			}
		}(root.sibling())
	}
	wg.Wait()
	root.end(parent)
	spans := tr.spans()
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	for i, s := range spans {
		if i > 0 && s.ID <= spans[i-1].ID {
			t.Fatalf("spans not in id order at %d", i)
		}
		if s.Name == "core.search" && s.Parent != parent.id {
			t.Fatalf("search span parent %d, want %d", s.Parent, parent.id)
		}
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}

	var none *tracer
	l := none.lane()
	s := l.begin("core.search", 0, 0)
	l.end(s)
	l.add("core.search", 0, 0, time.Now(), time.Now())
	if l != nil || s.id != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}
