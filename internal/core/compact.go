package core

import (
	"cmp"
	"slices"

	"siot/internal/task"
)

// CompactRecord is the pointer-free arena form of Record: the task is a
// dense task.Ref into the owning catalog instead of an embedded Task value.
// A Record costs ~96 B with two GC-scanned slice headers; a CompactRecord is
// 40 B with no pointers at all, so the multi-million-record stores and
// frozen-view arenas of a 1M-node population are invisible to the garbage
// collector and roughly half the size.
//
// A CompactRecord is only meaningful alongside the catalog (or a catalog
// Tasks() snapshot) its Ref was interned into — the store that owns it, or
// the TrustView that captured it, carries that resolution table.
type CompactRecord struct {
	Exp   Expectation
	Ref   task.Ref
	Count uint32
}

// TW returns the record's trustworthiness under eq. 18 — identical to
// Record.TW, which depends only on the expectation.
func (r CompactRecord) TW(n Normalizer) float64 { return r.Exp.Trustworthiness(n) }

// materialize widens a compact record back to the fat Record form. The Task
// value shares the catalog-owned characteristic and weight slices, so
// materializing allocates nothing.
func materialize(tasks []task.Task, r CompactRecord) Record {
	return Record{Task: tasks[r.Ref], Exp: r.Exp, Count: int(r.Count)}
}

// searchCompact locates the record for typ in a sorted-by-type compact
// record slice. tasks is the catalog snapshot resolving the records' refs.
func searchCompact(tasks []task.Task, recs []CompactRecord, typ task.Type) (int, bool) {
	return slices.BinarySearchFunc(recs, typ, func(r CompactRecord, t task.Type) int {
		return cmp.Compare(tasks[r.Ref].Type(), t)
	})
}

// charTWCompact is the weighted-average trustworthiness of one
// characteristic over compact records — the inner fraction of eq. 4:
// Σ_k w_j(τ_k)·TW(τ_k) / Σ_k w_j(τ_k) over records whose task contains the
// characteristic, with task refs resolved through tasks. ok is false when no
// record covers it.
func charTWCompact(tasks []task.Task, recs []CompactRecord, c task.Characteristic, n Normalizer) (float64, bool) {
	num, den := 0.0, 0.0
	for _, r := range recs {
		if w := tasks[r.Ref].Weight(c); w > 0 {
			num += float64(w * r.TW(n))
			den += w
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// bestTW is the direct-else-infer rule over the records one holder keeps
// about one trustee: the record for t's exact type when present, otherwise
// characteristic inference (eq. 4); ok=false when there are no records or
// a characteristic of t is uncovered.
func bestTW(tasks []task.Task, recs []CompactRecord, t task.Task, n Normalizer) (float64, bool) {
	if i, ok := searchCompact(tasks, recs, t.Type()); ok {
		return recs[i].TW(n), true
	}
	if len(recs) == 0 {
		return 0, false
	}
	return inferFromCompact(tasks, recs, t, n)
}

// inferFromCompact is eq. 4 over compact records: the inferred
// trustworthiness of t from experienced tasks sharing its characteristics,
// every characteristic covered or ok=false.
func inferFromCompact(tasks []task.Task, recs []CompactRecord, t task.Task, n Normalizer) (float64, bool) {
	total := 0.0
	weights := t.Weights()
	for i, c := range t.Characteristics() {
		est, ok := charTWCompact(tasks, recs, c, n)
		if !ok {
			return 0, false
		}
		total += float64(weights[i] * est)
	}
	return total, true
}
