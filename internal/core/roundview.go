package core

import (
	"slices"

	"siot/internal/task"
)

// RoundView is the frozen-epoch snapshot of everything a delegation round's
// compute phase reads: the per-edge experience records of a TrustView plus,
// for every directed social edge (u, v), the usage log u keeps about v — the
// substrate of the reverse evaluation (eq. 1). Where the TrustView serves
// the pure transitivity sweeps, the RoundView serves the mutuality rounds:
// direct-experience lookup (BestTW), one-hop recommendation gathering
// (EdgeIndex + BestTW per recommender), and the usage counters (ReverseTW)
// all come from contiguous captured arenas, so the compute phase of a round
// reads no live store (pinned by TestMutualityComputePhaseLockFree, which
// runs it with every store detached).
//
// Like the TrustView it embeds, a RoundView is immutable after capture and
// safe for concurrent readers. It freezes the state left by the previous
// round's merge; the simulator's rounds take it from the population's
// epoch chain, and the next merge (the only store writer) makes it stale,
// which Current detects from the store stamps. The records a round reads
// always live along social edges — experience is only ever seeded at or
// observed by social neighbors — which is what lets a per-edge arena stand
// in for the live stores.
type RoundView struct {
	*TrustView
	norm Normalizer
	// resp[e]/abus[e] are the responsible/abusive usage counts the source
	// agent of directed edge e keeps about the target agent.
	resp, abus []int32
}

// RoundSource is the store access a capture needs from the live stores.
// Count reports how many records holder keeps about about, Append appends
// exactly those records (compact, refs interned into Catalog) to buf, and
// Catalog is the shared catalog those refs resolve against
// (Store.RecordCount / Store.AppendCompact / the population catalog).
// Usage reports the usage log holder keeps about about (Store.Usage).
// Version reports holder's store stamp (Store.Version); the view records it
// per row, which is what lets a later capture or memo copy the rows whose
// store did not change. Every function is required and must be safe for
// concurrent use across distinct holders and observe a quiescent store —
// capture runs two passes, and a store mutated between them is detected
// and rejected (panic), not silently misrecorded.
type RoundSource struct {
	Catalog *task.Catalog
	Count   func(holder, about AgentID) int
	Append  func(holder, about AgentID, buf []CompactRecord) []CompactRecord
	Version func(holder AgentID) uint64
	Usage   func(holder, about AgentID) UsageLog
}

// Release returns the view's arenas — the embedded trust view's and the
// usage arrays — to the pool they were captured from and invalidates the
// view. Only the capture's owner may call it, exactly once.
func (v *RoundView) Release() {
	pool := v.TrustView.pool
	give(pool, v.resp)
	give(pool, v.abus)
	v.resp, v.abus = nil, nil
	v.TrustView.Release()
}

// Current reports whether a capture from src now would be byte-identical
// to v: every row's store still carries the stamp v recorded and the
// catalog has not grown. A released view is never current.
func (v *RoundView) Current(src RoundSource) bool {
	if v.stamps == nil || len(src.Catalog.Tasks()) != len(v.tasks) {
		return false
	}
	for u, s := range v.stamps {
		if src.Version(AgentID(u)) != s {
			return false
		}
	}
	return true
}

// EdgeIndex locates the directed edge u → w in the CSR edge array, or
// ok=false when w is not a neighbor of u. Rows are in ascending target
// order, so the lookup is a binary search within u's row.
func (v *TrustView) EdgeIndex(u, w AgentID) (int32, bool) {
	lo, hi := v.adjOff[u], v.adjOff[u+1]
	i, ok := slices.BinarySearch(v.adjTo[lo:hi], w)
	if !ok {
		return 0, false
	}
	return lo + int32(i), true
}

// BestTW returns the best trustworthiness estimate the source agent of
// directed edge e holds about the edge's target on task t: the direct
// record for t's exact type when present, otherwise characteristic
// inference — bit-identical to Store.BestTW over the captured records
// (TestRoundViewMatchesLiveStores).
func (v *RoundView) BestTW(e int32, t task.Task) (float64, bool) {
	return bestTW(v.tasks, v.EdgeRecords(e), t, v.norm)
}

// Usage returns the captured usage log of directed edge e: how the edge's
// target has used the source agent's resources up to the capture.
func (v *RoundView) Usage(e int32) UsageLog {
	return UsageLog{Responsible: int(v.resp[e]), Abusive: int(v.abus[e])}
}

// ReverseTW returns the reverse-evaluation trustworthiness of directed edge
// e (eq. 1's TW̃ from the captured usage log) — bit-identical to
// Store.ReverseTW at capture time.
func (v *RoundView) ReverseTW(e int32) float64 {
	return v.Usage(e).TW()
}
