package main

import (
	"strings"
	"testing"
	"time"
)

// TestMarkerSplitAcrossWrites feeds a stream through every pair of write
// boundaries and requires each marker to be counted exactly once, wherever
// the writes cut it.
func TestMarkerSplitAcrossWrites(t *testing.T) {
	stream := `{"line":{"kind":"event"}}` + "\n" + `{"line":{"kind":"epoch"}}` + "\n" + `{"kind":"epoch"}{"kind":"epoch"}`
	want := strings.Count(stream, `"kind":"epoch"`)
	for i := 0; i <= len(stream); i++ {
		for j := i; j <= len(stream); j++ {
			m := newMarker(`"kind":"epoch"`)
			got := m.count([]byte(stream[:i])) + m.count([]byte(stream[i:j])) + m.count([]byte(stream[j:]))
			if got != want {
				t.Fatalf("cuts at %d and %d: counted %d markers, want %d", i, j, got, want)
			}
		}
	}
}

// TestEpochVisibility checks how a write's visibility is read off: its
// epoch is the first one whose journal line was written after the ack, and
// it became visible when a query first returned that epoch or a later one.
func TestEpochVisibility(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	j := &journalFile{epochWritten: []time.Time{at(0), at(100), at(200)}}
	for _, c := range []struct {
		ack    int
		want   uint64
		wantOK bool
	}{{-1, 0, true}, {0, 1, true}, {50, 1, true}, {100, 2, true}, {250, 3, false}} {
		id, ok := j.firstEpochAfter(at(c.ack))
		if id != c.want || ok != c.wantOK {
			t.Errorf("ack at %d ms: epoch %d (%v), want %d (%v)", c.ack, id, ok, c.want, c.wantOK)
		}
	}

	var w epochWatch
	w.observe(0, at(5))
	w.observe(0, at(6))
	w.observe(2, at(230)) // epoch 1 was never returned by a query
	w.observe(1, at(240)) // a late reader of an older epoch changes nothing
	for _, c := range []struct {
		id     uint64
		want   int
		wantOK bool
	}{{0, 5, true}, {1, 230, true}, {2, 230, true}, {3, 0, false}} {
		got, ok := w.visibleAt(c.id)
		if ok != c.wantOK || (ok && !got.Equal(at(c.want))) {
			t.Errorf("visibleAt(%d) = %v (%v), want %d ms (%v)", c.id, got.Sub(t0), ok, c.want, c.wantOK)
		}
	}
}
