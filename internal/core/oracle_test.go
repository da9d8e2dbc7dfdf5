package core

import (
	"slices"
	"sync"

	"siot/internal/task"
)

// This file is the reference oracle of the transitivity search: the
// original map-based BFS over live accessor callbacks and fat Records, one
// hand-written path per model. FindViewModelInto must reproduce it byte for
// byte (TestFindViewEquivalence); the package's scenario tests drive it over
// hand-built networks.

// CharTW computes the weighted-average trustworthiness of one
// characteristic over a set of experience records — the inner fraction of
// eq. 4: Σ_k w_j(τ_k)·TW(τ_k) / Σ_k w_j(τ_k) over records whose task
// contains the characteristic. ok is false when no record covers it.
func CharTW(recs []Record, c task.Characteristic, n Normalizer) (float64, bool) {
	num, den := 0.0, 0.0
	for _, r := range recs {
		if w := r.Task.Weight(c); w > 0 {
			num += w * r.TW(n)
			den += w
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// InferFromRecords is eq. 4 over an explicit record set: the inferred
// trustworthiness of a task from experienced tasks sharing its
// characteristics. Every characteristic must be covered, else ok is false.
func InferFromRecords(recs []Record, t task.Task, n Normalizer) (float64, bool) {
	total := 0.0
	for _, c := range t.Characteristics() {
		est, ok := CharTW(recs, c, n)
		if !ok {
			return 0, false
		}
		total += t.Weight(c) * est
	}
	return total, true
}

// mapSearcher performs trust-transitivity discovery over accessor functions,
// so it runs over any substrate (live stores, a fake network).
type mapSearcher struct {
	// Neighbors returns the social neighbors of an agent.
	Neighbors func(AgentID) []AgentID
	// Records returns the experience records holder keeps about a neighbor.
	Records func(holder, about AgentID) []Record
	// RecordsAppend, when non-nil, replaces Records: it appends holder's
	// records about a neighbor to buf and returns the extended slice, so the
	// BFS reuses one pooled buffer instead of allocating a slice per hop.
	RecordsAppend func(holder, about AgentID, buf []Record) []Record
	Norm          Normalizer
	MaxDepth      int
	Omega1        float64
	Omega2        float64
	// CandidateFilter, when non-nil, restricts which nodes may become
	// potential trustees (any node may still relay recommendations).
	CandidateFilter func(AgentID) bool
}

// isCandidate applies the filter.
func (s *mapSearcher) isCandidate(id AgentID) bool {
	return s.CandidateFilter == nil || s.CandidateFilter(id)
}

// searchState holds the scratch buffers of one Find call: the visited set,
// the per-depth frontiers, the candidate map, and a record buffer. States
// are pooled and reused across calls, so the BFS over neighbors stops
// allocating once the pool is warm.
type searchState struct {
	inquired map[AgentID]bool
	best     map[AgentID]float64
	frontier map[AgentID]float64
	next     map[AgentID]float64
	order    []AgentID
	recbuf   []Record
	perChar  []map[AgentID]float64
}

var searchPool = sync.Pool{New: func() any {
	return &searchState{
		inquired: make(map[AgentID]bool),
		best:     make(map[AgentID]float64),
		frontier: make(map[AgentID]float64),
		next:     make(map[AgentID]float64),
	}
}}

// acquireState returns a cleared search state from the pool.
func acquireState() *searchState {
	st := searchPool.Get().(*searchState)
	clear(st.inquired)
	clear(st.best)
	clear(st.frontier)
	clear(st.next)
	for _, m := range st.perChar {
		clear(m)
	}
	return st
}

// Pooled-retention bounds for searchState: recbuf holds fat Record values
// (embedded Task with two GC-scanned slice headers), so a state parked in
// the pool with a populated recbuf pins the last call's records — and
// perChar grows monotonically with the widest task ever searched. scrub
// zeroes what the pool may retain and drops outsized buffers entirely.
const (
	// maxPooledRecbuf caps the record-buffer capacity a pooled state keeps.
	maxPooledRecbuf = 4096
	// maxPooledChars caps how many per-characteristic maps a pooled state
	// keeps (tasks have a handful of characteristics).
	maxPooledChars = 8
)

// scrub clears everything a pooled state must not retain: record values
// are zeroed (the capacity survives, the pointers do not), an outsized
// recbuf is released to the GC, and perChar is emptied and bounded.
func (st *searchState) scrub() {
	clear(st.recbuf[:cap(st.recbuf)])
	st.recbuf = st.recbuf[:0]
	if cap(st.recbuf) > maxPooledRecbuf {
		st.recbuf = nil
	}
	if len(st.perChar) > maxPooledChars {
		st.perChar = st.perChar[:maxPooledChars:maxPooledChars]
	}
	for _, m := range st.perChar {
		clear(m)
	}
}

// releaseState scrubs and pools a search state.
func releaseState(st *searchState) {
	st.scrub()
	searchPool.Put(st)
}

// Find discovers potential trustees for the trustor's task under one of
// the paper's three models, with hop and combine rules of its own (the
// model value only selects them). Each social hop (u → v) is admissible
// only if u's experience records about v satisfy the model for the task;
// admissible hops below ω1 stop relaying and hops below ω2 do not mint
// candidates. Path values propagate best-first per depth.
func (s *mapSearcher) Find(trustor AgentID, t task.Task, m TrustModel) SearchResult {
	st := acquireState()
	var res SearchResult
	switch m {
	case Aggressive:
		res = s.findAggressive(trustor, t, st)
	default:
		res = s.findSerial(trustor, t, m, st)
	}
	releaseState(st)
	return res
}

// records fetches holder's experience about a neighbor, through the
// allocation-free path when available. The returned slice is valid only
// until the next call on the same state.
func (s *mapSearcher) records(holder, about AgentID, st *searchState) []Record {
	if s.RecordsAppend != nil {
		st.recbuf = s.RecordsAppend(holder, about, st.recbuf[:0])
		return st.recbuf
	}
	return s.Records(holder, about)
}

// hopTW evaluates one hop under traditional or conservative rules.
func (s *mapSearcher) hopTW(recs []Record, t task.Task, m TrustModel) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	if m == Traditional {
		for _, r := range recs {
			if r.Task.Type() == t.Type() {
				return r.TW(s.Norm), true
			}
		}
		return 0, false
	}
	// Conservative: all characteristics must be covered by this hop's
	// records (eq. 8 with the inference of eqs. 9–10).
	return InferFromRecords(recs, t, s.Norm)
}

// findSerial runs the single-path models (traditional, conservative).
func (s *mapSearcher) findSerial(trustor AgentID, t task.Task, m TrustModel, st *searchState) SearchResult {
	combine := CombinePair
	if m == Traditional {
		combine = func(a, b float64) float64 { return a * b }
	}
	frontier, next := st.frontier, st.next
	frontier[trustor] = 1
	for depth := 1; depth <= s.MaxDepth && len(frontier) > 0; depth++ {
		st.order = appendSortedIDs(st.order[:0], frontier)
		for _, u := range st.order {
			uval := frontier[u]
			for _, v := range s.Neighbors(u) {
				if v == trustor {
					continue
				}
				hop, ok := s.hopTW(s.records(u, v, st), t, m)
				if !ok {
					continue
				}
				st.inquired[v] = true
				val := combine(uval, hop)
				if s.passTrustee(m, hop) && s.isCandidate(v) {
					if cur, seen := st.best[v]; !seen || val > cur {
						st.best[v] = val
					}
				}
				if depth < s.MaxDepth && s.passRecommender(m, hop) {
					if cur, seen := next[v]; !seen || val > cur {
						next[v] = val
					}
				}
			}
		}
		frontier, next = next, frontier
		clear(next)
	}
	return result(st.best, st.inquired)
}

// findAggressive runs one per-characteristic propagation (eqs. 12–17):
// characteristic a_i may travel path B←C←E while a_j travels B←D←E, and a
// node becomes a candidate only when every characteristic of the task
// reaches it.
func (s *mapSearcher) findAggressive(trustor AgentID, t task.Task, st *searchState) SearchResult {
	chars := t.Characteristics()
	for len(st.perChar) < len(chars) {
		st.perChar = append(st.perChar, make(map[AgentID]float64))
	}
	for ci, c := range chars {
		best := st.perChar[ci]
		frontier, next := st.frontier, st.next
		clear(frontier)
		clear(next)
		frontier[trustor] = 1
		for depth := 1; depth <= s.MaxDepth && len(frontier) > 0; depth++ {
			st.order = appendSortedIDs(st.order[:0], frontier)
			for _, u := range st.order {
				uval := frontier[u]
				for _, v := range s.Neighbors(u) {
					if v == trustor {
						continue
					}
					hop, ok := CharTW(s.records(u, v, st), c, s.Norm)
					if !ok {
						continue
					}
					st.inquired[v] = true
					val := CombinePair(uval, hop)
					if s.isCandidate(v) {
						if cur, seen := best[v]; !seen || val > cur {
							best[v] = val
						}
					}
					if depth < s.MaxDepth && hop >= s.Omega1 {
						if cur, seen := next[v]; !seen || val > cur {
							next[v] = val
						}
					}
				}
			}
			frontier, next = next, frontier
			clear(next)
		}
	}
	// Combine per-characteristic estimates with the task weights (eq. 17),
	// requiring full coverage (eq. 12). As in eq. 11, the ω2 threshold
	// applies to the task-level trustworthiness, not to each characteristic
	// in isolation.
	totals := st.best
	clear(totals)
	for v := range st.perChar[0] {
		tw, ok := 0.0, true
		for ci, c := range chars {
			val, seen := st.perChar[ci][v]
			if !seen {
				ok = false
				break
			}
			tw += t.Weight(c) * val
		}
		if ok && tw >= s.Omega2 {
			totals[v] = tw
		}
	}
	return result(totals, st.inquired)
}

// passRecommender applies ω1 per model; the traditional baseline transfers
// through any positive trustworthiness, "without any restriction".
func (s *mapSearcher) passRecommender(m TrustModel, hop float64) bool {
	if m == Traditional {
		return hop > 0
	}
	return hop >= s.Omega1
}

// passTrustee applies ω2 per model.
func (s *mapSearcher) passTrustee(m TrustModel, hop float64) bool {
	if m == Traditional {
		return hop > 0
	}
	return hop >= s.Omega2
}

// appendSortedIDs appends the map's keys to ids in ascending order, reusing
// the slice's capacity.
func appendSortedIDs(ids []AgentID, m map[AgentID]float64) []AgentID {
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func result(best map[AgentID]float64, inquired map[AgentID]bool) SearchResult {
	cands := make([]Candidate, 0, len(best))
	for id, tw := range best {
		cands = append(cands, Candidate{ID: id, TW: tw})
	}
	sortCandidates(cands)
	return SearchResult{Candidates: cands, Inquired: len(inquired)}
}
