package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"siot/internal/rng"
	"siot/internal/task"
)

// seedTestTask builds a small deterministic task for a (trustee, type)
// key: one or two characteristics derived from the type.
func seedTestTask(typ int) task.Task {
	c1 := task.Characteristic(typ % 8)
	if typ%3 == 0 {
		return task.Uniform(task.Type(typ), c1)
	}
	return task.Uniform(task.Type(typ), c1, task.Characteristic((typ+3)%8))
}

// randomSeedBatch draws a strictly (Trustee, Task.Type())-sorted batch of
// random size and content.
func randomSeedBatch(r *rand.Rand) []SeedRecord {
	var batch []SeedRecord
	trustee := AgentID(0)
	for len(batch) < 2+r.IntN(60) {
		trustee += AgentID(1 + r.IntN(4))
		typ := 0
		for range 1 + r.IntN(3) {
			typ += 1 + r.IntN(5)
			s := r.Float64()
			batch = append(batch, SeedRecord{
				Trustee: trustee,
				Task:    seedTestTask(typ),
				Exp:     Expectation{S: s, G: s, D: 1 - s, C: r.Float64() * 0.2},
			})
		}
	}
	return batch
}

// saveBytes snapshots a store for byte-level comparison.
func saveBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeedSortedMatchesSeedLoop is the bulk path's equivalence property:
// on random sorted batches, SeedSorted produces byte-identical store state
// to a per-record Seed loop — into an empty store and into one already
// holding records (the merge path, where seeded entries must replace
// same-key records exactly as Seed does).
func TestSeedSortedMatchesSeedLoop(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rng.Split(99, "seed-sorted-prop", trial)
		batch := randomSeedBatch(r)
		prefill := func(s *Store) {
			if trial%2 == 0 {
				return // empty-store fast path
			}
			// Overlap some keys with the batch and add some fresh ones.
			for i := 0; i < len(batch); i += 2 {
				s.Observe(batch[i].Trustee, batch[i].Task, Outcome{Success: true, Gain: 0.5, Cost: 0.1}, PerfectEnv())
			}
			s.Observe(batch[0].Trustee+1000, seedTestTask(3), Outcome{Damage: 0.2, Cost: 0.1}, PerfectEnv())
		}
		bulk := NewStore(1, DefaultUpdateConfig())
		prefill(bulk)
		if err := bulk.SeedSorted(batch); err != nil {
			t.Fatalf("trial %d: sorted batch rejected: %v", trial, err)
		}
		loop := NewStore(1, DefaultUpdateConfig())
		prefill(loop)
		for _, rec := range batch {
			loop.Seed(rec.Trustee, rec.Task, rec.Exp)
		}
		if got, want := saveBytes(t, bulk), saveBytes(t, loop); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: bulk store differs from Seed loop\nbulk:\n%s\nloop:\n%s", trial, got, want)
		}
	}
}

// TestSeedSortedRejectsBadOrder pins the validation: unsorted batches and
// duplicate (trustee, type) keys are rejected before anything is applied.
func TestSeedSortedRejectsBadOrder(t *testing.T) {
	rec := func(trustee AgentID, typ int) SeedRecord {
		return SeedRecord{Trustee: trustee, Task: seedTestTask(typ), Exp: Expectation{S: 0.5, G: 0.5, D: 0.5}}
	}
	cases := map[string][]SeedRecord{
		"trustee out of order":  {rec(5, 1), rec(3, 1)},
		"type out of order":     {rec(3, 4), rec(3, 2)},
		"duplicate key":         {rec(3, 2), rec(3, 2)},
		"duplicate after valid": {rec(1, 1), rec(2, 1), rec(2, 1)},
	}
	for name, batch := range cases {
		s := NewStore(1, DefaultUpdateConfig())
		s.Seed(9, seedTestTask(1), Expectation{S: 0.9, G: 0.9, D: 0.1})
		before := saveBytes(t, s)
		if err := s.SeedSorted(batch); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if !bytes.Equal(before, saveBytes(t, s)) {
			t.Errorf("%s: rejected batch mutated the store", name)
		}
	}
	// Boundary cases: empty and singleton batches are trivially sorted.
	s := NewStore(1, DefaultUpdateConfig())
	if err := s.SeedSorted(nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	if err := s.SeedSorted([]SeedRecord{rec(2, 2)}); err != nil {
		t.Errorf("singleton batch rejected: %v", err)
	}
	if n := s.NumRecords(); n != 1 {
		t.Errorf("singleton batch installed %d records", n)
	}
}

// TestSeedSortedObserveAfter guards the insert after a bulk seed: every
// trustee's records share the store's one sorted slice, so growing one
// trustee's row through Observe must not clobber the next row.
func TestSeedSortedObserveAfter(t *testing.T) {
	s := NewStore(1, DefaultUpdateConfig())
	batch := []SeedRecord{
		{Trustee: 1, Task: seedTestTask(1), Exp: Expectation{S: 0.4, G: 0.4, D: 0.6}},
		{Trustee: 2, Task: seedTestTask(2), Exp: Expectation{S: 0.8, G: 0.8, D: 0.2}},
	}
	if err := s.SeedSorted(batch); err != nil {
		t.Fatal(err)
	}
	// Insert a record with a smaller type for trustee 1: forces an insert
	// into the full-capacity group slice.
	s.Observe(1, seedTestTask(0), Outcome{Success: true, Gain: 1}, PerfectEnv())
	if got, ok := s.Record(2, batch[1].Task.Type()); !ok || got.Exp != batch[1].Exp {
		t.Fatalf("trustee 2's seeded record corrupted: %+v ok=%v", got, ok)
	}
}

// FuzzSeedSorted feeds adversarial batches to SeedSorted: arbitrary
// (trustee, type, value) triples decoded from raw bytes, unsorted as often
// as not. The invariants: acceptance iff the batch is strictly sorted,
// accepted batches match a per-record Seed loop byte for byte, and
// rejected batches leave the store untouched.
func FuzzSeedSorted(f *testing.F) {
	f.Add([]byte{1, 1, 100, 2, 2, 200})
	f.Add([]byte{5, 4, 10, 3, 1, 10})        // trustee out of order
	f.Add([]byte{2, 2, 0, 2, 2, 255})        // duplicate key
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 1, 3}) // mixed
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var batch []SeedRecord
		for i := 0; i+2 < len(data); i += 3 {
			s := float64(data[i+2]) / 255
			batch = append(batch, SeedRecord{
				Trustee: AgentID(data[i]),
				Task:    seedTestTask(int(data[i+1])),
				Exp:     Expectation{S: s, G: s, D: 1 - s},
			})
		}
		sorted := true
		for i := 1; i < len(batch); i++ {
			if compareSeedRecords(batch[i-1], batch[i]) >= 0 {
				sorted = false
				break
			}
		}
		bulk := NewStore(7, DefaultUpdateConfig())
		err := bulk.SeedSorted(batch)
		if (err == nil) != sorted {
			t.Fatalf("sorted=%v but err=%v", sorted, err)
		}
		if err != nil {
			if bulk.NumRecords() != 0 {
				t.Fatalf("rejected batch installed %d records", bulk.NumRecords())
			}
			return
		}
		loop := NewStore(7, DefaultUpdateConfig())
		for _, rec := range batch {
			loop.Seed(rec.Trustee, rec.Task, rec.Exp)
		}
		if got, want := saveBytes(t, bulk), saveBytes(t, loop); !bytes.Equal(got, want) {
			t.Fatalf("bulk store differs from Seed loop\nbulk:\n%s\nloop:\n%s", got, want)
		}
	})
}
