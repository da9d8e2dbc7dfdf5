package core

import (
	"cmp"
	"fmt"

	"siot/internal/task"
)

// This file implements bulk experience seeding. The experiment setup phase
// installs hundreds of thousands of seed records (one per (holder, trustee,
// task) triple along the social edges), and the per-record Seed path — one
// lock acquisition, two binary searches, one insert shift per record — is
// the dominant cost of building a 100k-node population. SeedSorted ingests
// a pre-sorted batch in a single pass instead: one lock, and one merge of
// the existing records with the batch into fresh exact-size slices.

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
	s.mu.Lock()
	defer s.mu.Unlock()
	tasks := s.cfg.Catalog.Tasks()
	// Size the merged layout exactly: a batch trustee the store lacks adds a
	// row, and a batch key the store already holds replaces its record.
	nAbout, nRecs := len(s.about), len(s.recs)+len(batch)
	var row []CompactRecord
	for j, r := range batch {
		if j == 0 || r.Trustee != batch[j-1].Trustee {
			if row = s.row(r.Trustee); row == nil {
				nAbout++
			}
		}
		if _, ok := searchCompact(tasks, row, r.Task.Type()); ok {
			nRecs--
		}
	}
	about := make([]AgentID, 0, nAbout)
	off := make([]int32, 1, nAbout+1)
	recs := make([]CompactRecord, 0, nRecs)
	for i, j := 0, 0; i < len(s.about) || j < len(batch); {
		var t AgentID
		var old []CompactRecord
		if j == len(batch) || i < len(s.about) && s.about[i] <= batch[j].Trustee {
			t, old = s.about[i], s.recs[s.off[i]:s.off[i+1]]
			i++
		} else {
			t = batch[j].Trustee
		}
		// Merge the row by task type. Interning is a bucket scan over a
		// tiny per-profile catalog; the batch's tasks come from the
		// universe, so after the first few records every Intern is a hit.
		for ; j < len(batch) && batch[j].Trustee == t; j++ {
			typ := batch[j].Task.Type()
			for len(old) > 0 && tasks[old[0].Ref].Type() < typ {
				recs, old = append(recs, old[0]), old[1:]
			}
			if len(old) > 0 && tasks[old[0].Ref].Type() == typ {
				old = old[1:] // seeded record replaces, like Seed
			}
			recs = append(recs, CompactRecord{Ref: s.cfg.Catalog.Intern(batch[j].Task), Exp: batch[j].Exp})
		}
		recs = append(recs, old...)
		about = append(about, t)
		off = append(off, int32(len(recs)))
	}
	s.about, s.off, s.recs = about, off, recs
	s.touch()
	return nil
}
