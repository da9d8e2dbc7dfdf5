package core

import (
	"math"
	"slices"
	"sync"

	"siot/internal/task"
)

// This file is the transitivity search: one BFS over a frozen TrustView's
// dense generation-stamped arrays, indexed by agent slot, driven by a
// TrustModel's ModelSpec and fed by the hop tables RequireModel built in an
// EdgeMemo over the same view. The package tests pin it byte for byte
// against a map-based reference search over live stores (oracle_test.go).
// TrustInto answers a single (trustor, trustee) point query with the same
// loop, pinned bit for bit to a scan of the full search's candidates
// (trustinto_test.go).

// frontSet is one stamped agent set with a max-merged value per member — a
// BFS frontier or a best-value candidate layer — plus the ordered ID list
// that replaces sorting map keys: IDs are appended on first discovery (and
// frontiers sorted once per depth), so iteration order matches the
// reference search's sorted-key order exactly.
type frontSet struct {
	stamp []uint32
	val   []float64
	ids   []AgentID
	cur   uint32
}

func (f *frontSet) ensure(n int) {
	if len(f.stamp) < n {
		f.stamp = append(f.stamp, make([]uint32, n-len(f.stamp))...)
		f.val = append(f.val, make([]float64, n-len(f.val))...)
	}
}

func (f *frontSet) reset(stamp uint32) {
	f.cur = stamp
	f.ids = f.ids[:0]
}

// add inserts or max-merges (v, val), mirroring the reference search's
// "if cur, seen := m[v]; !seen || val > cur" update.
func (f *frontSet) add(v AgentID, val float64) {
	if f.stamp[v] != f.cur {
		f.stamp[v] = f.cur
		f.val[v] = val
		f.ids = append(f.ids, v)
	} else if val > f.val[v] {
		f.val[v] = val
	}
}

// has reports whether v is in the set.
func (f *frontSet) has(v AgentID) bool { return f.stamp[v] == f.cur }

// denseState is the pooled scratch state of one search. Membership of every
// set (inquired, frontiers, candidate layers) is encoded as a generation
// stamp, so "clearing" a set is a counter increment instead of an O(n) wipe,
// and a warmed pool entry serves any number of searches without allocating.
type denseState struct {
	stamp    uint32
	inqStamp []uint32
	inqCur   uint32

	fr [2]frontSet

	// layers holds the best path value per candidate and tabs the memo's
	// hop table each layer spreads over: one per task characteristic for a
	// per-characteristic model, one for a single-path one.
	layers []frontSet
	tabs   [][]float64

	n int
}

var densePool = sync.Pool{New: func() any { return &denseState{} }}

// stampHeadroom bounds the stamps one search can consume: the inquired set
// plus, per characteristic layer, a best set and one frontier set per
// depth. 1<<16 covers any plausible depth × alphabet product.
const stampHeadroom = 1 << 16

// acquireDense returns a pooled state sized for n agent slots with at least
// k candidate layers and enough stamp headroom that the counter cannot wrap
// mid-search.
func acquireDense(n, k int) *denseState {
	st := densePool.Get().(*denseState)
	for len(st.layers) < k {
		st.layers = append(st.layers, frontSet{})
	}
	if st.n < n {
		st.inqStamp = append(st.inqStamp, make([]uint32, n-st.n)...)
		st.n = n
	}
	st.fr[0].ensure(n)
	st.fr[1].ensure(n)
	for i := range st.layers {
		st.layers[i].ensure(n)
	}
	if st.stamp > math.MaxUint32-stampHeadroom {
		clear(st.inqStamp)
		clear(st.fr[0].stamp)
		clear(st.fr[1].stamp)
		for i := range st.layers {
			clear(st.layers[i].stamp)
		}
		st.stamp = 0
	}
	return st
}

// release drops the state's hold on the memo's tables and pools it.
func (st *denseState) release() {
	clear(st.tabs)
	st.tabs = st.tabs[:0]
	densePool.Put(st)
}

// nextStamp mints a fresh set identity (never 0: zeroed arrays mean "in no
// set").
func (st *denseState) nextStamp() uint32 {
	st.stamp++
	return st.stamp
}

// anyPositive is the ungated hop threshold: hop >= anyPositive is exactly
// hop > 0 (no float64 lies strictly between 0 and it), the traditional
// baseline's "without any restriction" rule.
const anyPositive = math.SmallestNonzeroFloat64

// searchRule is how a search under one model combines and admits hops; a
// candidate needs every layer (eq. 12 coverage) and is their weighted sum.
type searchRule struct {
	product  bool      // eq. 5's product, else eq. 7's CombinePair
	relayMin float64   // the least hop that carries a path onward
	hopMin   float64   // the least hop that mints its target into a layer
	sumMin   float64   // the least weighted sum a candidate keeps
	weights  []float64 // per layer
}

var unitWeight = []float64{1}

// layerWeights returns the weight of each hop table a search of t under m
// reads: t's own weights, one per characteristic, for a PerCharacteristic
// model (eq. 17), and one unit weight for a single-path model's one table
// (0 + 1·v is exactly v).
func layerWeights(m TrustModel, t task.Task) []float64 {
	if m.Spec().PerCharacteristic {
		return t.Weights()
	}
	return unitWeight
}

// rule returns the searchRule for t under m.
func (s *Searcher) rule(m TrustModel, t task.Task) searchRule {
	spec := m.Spec()
	r := searchRule{product: spec.Combine == combineProduct, relayMin: anyPositive, hopMin: anyPositive,
		sumMin: math.Inf(-1), weights: layerWeights(m, t)}
	if spec.OmegaGated {
		r.relayMin, r.hopMin = s.Omega1, s.Omega2
	}
	if spec.PerCharacteristic {
		// Every reachable node mints per characteristic; as in eq. 11, ω2
		// applies to the task-level value, not to each characteristic.
		r.hopMin, r.sumMin = math.Inf(-1), r.hopMin
	}
	return r
}

// FindViewModelInto discovers potential trustees for the trustor's task over
// a frozen view, writing into res and reusing res.Candidates' capacity so a
// caller that recycles results allocates nothing after warmup.
//
// Each social hop (u → v) is admissible when the model admits u's captured
// records about v for the task; the model's ModelSpec picks how path values
// accumulate and whether ω1/ω2 gate relaying and candidacy. Path values
// propagate best-first per depth (exact for hop values ≥ 0.5, where eq. 7 is
// monotone; a safe approximation below). A PerCharacteristic model (the
// aggressive policy, eqs. 12–17) spreads each task characteristic along its
// own paths and combines the per-characteristic estimates with the task's
// weights (eq. 17), requiring full coverage (eq. 12).
//
// Every hop is one lookup in the tables RequireModel built for (m, t) in a
// memo over view; an uncovered search leaves res empty and returns an error
// wrapping ErrNotRequired. It is safe for concurrent use: view and memo are
// read-only and each call draws its scratch state from a pool.
func (s *Searcher) FindViewModelInto(res *SearchResult, view *TrustView, memo *EdgeMemo, trustor AgentID, t task.Task, m TrustModel) error {
	*res = SearchResult{Candidates: res.Candidates[:0]}
	r := s.rule(m, t)
	st := acquireDense(view.NumAgents(), len(r.weights))
	if err := memo.hopTables(&st.tabs, view, m, t); err != nil {
		st.release()
		return err
	}
	st.inqCur = st.nextStamp()
	for li, vals := range st.tabs {
		inquired, _ := s.spread(st, view, vals, trustor, &r, &st.layers[li], s.MaxDepth)
		res.Inquired += inquired
	}
	// A node unreached by the first layer can never be covered, so its
	// discovery list is the candidate pool.
	for _, v := range st.layers[0].ids {
		tw, ok := 0.0, true
		for li, w := range r.weights {
			layer := &st.layers[li]
			if !layer.has(v) {
				ok = false
				break
			}
			tw += float64(w * layer.val[v])
		}
		if ok && tw >= r.sumMin {
			res.Candidates = append(res.Candidates, Candidate{ID: v, TW: tw})
		}
	}
	sortCandidates(res.Candidates)
	st.release()
	return nil
}

// spread runs one breadth-first propagation from trustor, at most limit
// (≤ MaxDepth) hops deep, over the memo table vals (NaN blocks a hop) into
// the candidate layer best. Every admissible hop marks its target inquired;
// one of at least r.hopMin mints it into best (max-merged over paths) if the
// candidate mask admits it, and one of at least r.relayMin relays the path
// while the depth is below MaxDepth. It returns how many nodes it newly
// marked inquired and its last frontier (the nodes a path of exactly limit
// hops relays from, valid until st's next spread).
func (s *Searcher) spread(st *denseState, view *TrustView, vals []float64, trustor AgentID,
	r *searchRule, best *frontSet, limit int) (int, *frontSet) {
	best.reset(st.nextStamp())
	adjOff, adjTo, mask := view.adjOff, view.adjTo, s.CandidateMask
	product, relayMin, mintMin := r.product, r.relayMin, r.hopMin
	// The inquired set and the candidate layer are updated inline with
	// their fields held in locals: this loop is the search's whole cost.
	inqStamp, inqCur, inquired := st.inqStamp, st.inqCur, 0
	bStamp, bVal, bCur := best.stamp, best.val, best.cur
	cur, nxt := &st.fr[0], &st.fr[1]
	cur.reset(st.nextStamp())
	cur.add(trustor, 1)
	for depth := 1; depth <= limit && len(cur.ids) > 0; depth++ {
		nxt.reset(st.nextStamp())
		relay := depth < s.MaxDepth
		for _, u := range cur.ids {
			uval := cur.val[u]
			// miss carries the combine rule into the edge loop without a
			// branch: uval·hop + miss·(1−hop) is eq. 7's CombinePair with
			// miss = 1−uval and eq. 5's product with miss = 0 (adding +0 to
			// a path value is exact).
			miss := 0.0
			if !product {
				miss = 1 - uval
			}
			base := adjOff[u]
			for k, v := range adjTo[base:adjOff[u+1]] {
				if v == trustor {
					continue
				}
				hop := vals[int(base)+k]
				if math.IsNaN(hop) {
					continue
				}
				if inqStamp[v] != inqCur {
					inqStamp[v] = inqCur
					inquired++
				}
				val := float64(uval*hop) + float64(miss*(1-hop))
				if hop >= mintMin && (mask == nil || mask[v]) {
					if bStamp[v] != bCur {
						bStamp[v] = bCur
						bVal[v] = val
						best.ids = append(best.ids, v)
					} else if val > bVal[v] {
						bVal[v] = val
					}
				}
				if relay && hop >= relayMin {
					nxt.add(v, val)
				}
			}
		}
		cur, nxt = nxt, cur
		slices.Sort(cur.ids)
	}
	return inquired, cur
}

// TrustInto answers one point query: the value trustee holds among
// trustor's candidates for t under m, and whether it is one — bit for bit
// what FindViewModelInto followed by a scan of its candidates for trustee
// returns ((0, false) when absent), without minting, listing or sorting the
// other candidates. It takes one point value per layer; the trustee is not
// found as soon as one layer misses it (eq. 12 coverage), else the weighted
// sum (eq. 17) must pass ω2. An uncovered query answers (0, false) and an
// error wrapping ErrNotRequired; it is as concurrency-safe as FindViewModelInto.
func (s *Searcher) TrustInto(view *TrustView, memo *EdgeMemo, trustor, trustee AgentID, t task.Task, m TrustModel) (float64, bool, error) {
	if trustee == trustor || s.MaxDepth < 1 || (s.CandidateMask != nil && !s.CandidateMask[trustee]) {
		return 0, false, memo.hopTables(nil, view, m, t) // no path can answer
	}
	st := acquireDense(view.NumAgents(), 1)
	if err := memo.hopTables(&st.tabs, view, m, t); err != nil {
		st.release()
		return 0, false, err
	}
	r := s.rule(m, t)
	st.inqCur = st.nextStamp()
	tw, found := 0.0, false
	for li, vals := range st.tabs {
		var v float64
		if v, found = s.point(st, view, vals, trustor, trustee, &r); !found {
			break
		}
		tw += float64(r.weights[li] * v)
	}
	st.release()
	if !found || tw < r.sumMin {
		return 0, false, nil
	}
	return tw, true, nil
}

// point is trustee's best path value over at most MaxDepth hops: spread's
// candidate layer after MaxDepth−1 hops, max-merged with the last hop from
// every node of the final frontier into trustee, under the same admission,
// minting threshold and combine as spread's edge loop.
func (s *Searcher) point(st *denseState, view *TrustView, vals []float64, trustor, trustee AgentID, r *searchRule) (float64, bool) {
	best := &st.layers[0]
	_, front := s.spread(st, view, vals, trustor, r, best, s.MaxDepth-1)
	val, found := 0.0, best.has(trustee)
	if found {
		val = best.val[trustee]
	}
	for _, u := range front.ids {
		e, ok := view.EdgeIndex(u, trustee)
		if !ok {
			continue
		}
		hop := vals[e]
		if math.IsNaN(hop) || !(hop >= r.hopMin) {
			continue
		}
		uval := front.val[u]
		miss := 0.0
		if !r.product {
			miss = 1 - uval
		}
		if v := float64(uval*hop) + float64(miss*(1-hop)); !found || v > val {
			val, found = v, true
		}
	}
	return val, found
}
