package core

import (
	"sync"
	"testing"

	"siot/internal/task"
)

// TestStoreConcurrentAccess hammers one store from concurrent readers and
// writers; run under -race it proves the store's one RW-mutex guards both
// the sorted record slice and the usage logs.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(1, DefaultUpdateConfig())
	tasks := []task.Task{
		task.Uniform(0, task.CharGPS),
		task.Uniform(1, task.CharGPS, task.CharImage),
		task.Uniform(2, task.CharImage, task.CharCompute),
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				trustee := AgentID(i % 17)
				s.Observe(trustee, tasks[i%len(tasks)], Outcome{Success: i%2 == 0, Gain: 0.5, Cost: 0.1}, PerfectEnv())
				s.ObserveUsage(AgentID(w), i%3 == 0)
			}
		}(w)
		go func() {
			defer wg.Done()
			var buf []Record
			for i := 0; i < 200; i++ {
				trustee := AgentID(i % 17)
				buf = s.AppendRecords(trustee, buf[:0])
				s.InferTW(trustee, tasks[1])
				s.BestTW(trustee, tasks[2])
				s.ReverseTW(AgentID(i % 4))
				s.Trustees()
			}
		}()
	}
	wg.Wait()
	if s.NumRecords() == 0 {
		t.Fatal("no records written")
	}
	for _, trustee := range s.Trustees() {
		recs := s.Records(trustee)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Task.Type() >= recs[i].Task.Type() {
				t.Fatalf("records about %d not sorted by task type", trustee)
			}
		}
	}
}

// TestStoreAppendRecordsReuse verifies the allocation-free read path reuses
// the caller's buffer and returns the same ordered data as Records.
func TestStoreAppendRecordsReuse(t *testing.T) {
	s := NewStore(1, DefaultUpdateConfig())
	tk0 := task.Uniform(4, task.CharGPS)
	tk1 := task.Uniform(2, task.CharImage)
	s.Seed(7, tk0, Expectation{S: 0.8, G: 0.8, D: 0.2})
	s.Seed(7, tk1, Expectation{S: 0.6, G: 0.5, D: 0.4})

	buf := make([]Record, 0, 8)
	got := s.AppendRecords(7, buf)
	want := s.Records(7)
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("lengths differ: append %d, records %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Task.Type() != want[i].Task.Type() || got[i].Exp != want[i].Exp {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if got[0].Task.Type() != 2 || got[1].Task.Type() != 4 {
		t.Fatalf("records not ordered by task type: %v, %v", got[0].Task.Type(), got[1].Task.Type())
	}
	if &buf[:1][0] != &got[:1][0] {
		t.Fatal("AppendRecords did not reuse the caller's buffer")
	}
	if extra := s.AppendRecords(99, got); len(extra) != len(got) {
		t.Fatal("unknown trustee extended the buffer")
	}
}
