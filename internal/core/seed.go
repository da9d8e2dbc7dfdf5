package core

import (
	"cmp"
	"fmt"

	"siot/internal/task"
)

// This file implements bulk experience seeding. The experiment setup phase
// installs hundreds of thousands of seed records (one per (holder, trustee,
// task) triple along the social edges), and the per-record Seed path — one
// lock acquisition, one map lookup, one binary search, one slices.Insert
// shift per record — is the dominant cost of building a 100k-node
// population. SeedSorted ingests a pre-sorted batch in a single pass
// instead: one lock per trustee group, exact-size record slices carved from
// one contiguous arena, no per-record searching or shifting.

// SeedRecord is one pre-computed experience record of a bulk seeding batch:
// the trustee it concerns, the task, and the expectation to install.
// Semantically it is one deferred Store.Seed call.
type SeedRecord struct {
	Trustee AgentID
	Task    task.Task
	Exp     Expectation
}

// compareSeedRecords orders batch entries by (trustee, task type) — the
// key order SeedSorted requires.
func compareSeedRecords(a, b SeedRecord) int {
	if c := cmp.Compare(a.Trustee, b.Trustee); c != 0 {
		return c
	}
	return cmp.Compare(a.Task.Type(), b.Task.Type())
}

// SeedSorted installs a batch of seed records in one pass. The result is
// exactly that of calling Seed for every entry in order: seeded records
// carry a zero delegation count and replace any existing record for the
// same (trustee, task type).
//
// The batch must be sorted strictly ascending by (Trustee, Task.Type()) —
// no duplicate keys. Violations are rejected with an error before anything
// is applied, so a failed call leaves the store untouched. The batch is
// copied into a fresh record arena; the caller keeps ownership of the
// slice and may reuse it for the next batch.
func (s *Store) SeedSorted(batch []SeedRecord) error {
	for i := 1; i < len(batch); i++ {
		if compareSeedRecords(batch[i-1], batch[i]) >= 0 {
			return fmt.Errorf("core: seed batch entry %d (trustee %d, task %d) not strictly after (trustee %d, task %d)",
				i, batch[i].Trustee, batch[i].Task.Type(), batch[i-1].Trustee, batch[i-1].Task.Type())
		}
	}
	// One contiguous compact arena for the whole batch — 40 pointer-free
	// bytes per record, invisible to the GC. Per-trustee groups become
	// full-capacity-capped subslices, so a later Observe insert reallocates
	// instead of clobbering the neighboring group. Interning is a bucket
	// scan over a tiny per-profile catalog; the batch's tasks come from the
	// universe, so after the first few records every Intern is a hit.
	recs := make([]CompactRecord, len(batch))
	for i := range batch {
		recs[i] = CompactRecord{Ref: s.cat.Intern(batch[i].Task), Exp: batch[i].Exp}
	}
	for lo := 0; lo < len(batch); {
		hi := lo + 1
		for hi < len(batch) && batch[hi].Trustee == batch[lo].Trustee {
			hi++
		}
		s.seedGroup(batch[lo].Trustee, recs[lo:hi:hi])
		lo = hi
	}
	s.touch()
	return nil
}

// seedGroup installs one trustee's sorted record group. An empty store
// entry adopts the group slice directly (the bulk fast path); otherwise the
// group is merged with the existing records, seeded entries replacing
// same-type ones exactly as Seed would.
func (s *Store) seedGroup(trustee AgentID, group []CompactRecord) {
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	existing := sh.records[trustee]
	if len(existing) == 0 {
		if sh.records == nil {
			sh.records = make(map[AgentID][]CompactRecord)
		}
		sh.records[trustee] = group
		return
	}
	tasks := s.cat.Tasks()
	merged := make([]CompactRecord, 0, len(existing)+len(group))
	i, j := 0, 0
	for i < len(existing) && j < len(group) {
		switch c := cmp.Compare(tasks[existing[i].Ref].Type(), tasks[group[j].Ref].Type()); {
		case c < 0:
			merged = append(merged, existing[i])
			i++
		case c > 0:
			merged = append(merged, group[j])
			j++
		default: // seeded record replaces, like Seed
			merged = append(merged, group[j])
			i++
			j++
		}
	}
	merged = append(merged, existing[i:]...)
	merged = append(merged, group[j:]...)
	sh.records[trustee] = merged
}
