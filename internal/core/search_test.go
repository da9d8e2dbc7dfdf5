package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"siot/internal/task"
)

// searchProbes are the tasks the search tests query: the fixture's own
// types plus a weighted two-characteristic task, an unweighted pair no
// single record holds, and an uncovered characteristic.
func (f *roundFixture) searchProbes() []task.Task {
	return append(append([]task.Task(nil), f.tasks...),
		task.MustNew(5, map[task.Characteristic]float64{task.CharGPS: 0.3, task.CharCompute: 0.7}),
		task.Uniform(6, task.CharImage, task.CharStorage),
		task.Uniform(9, task.CharAudio),
	)
}

// captureView freezes the fixture's stores into a TrustView.
func (f *roundFixture) captureView(t *testing.T) *TrustView {
	t.Helper()
	return captureTrustView(t, f.adjOff, f.adjTo, f.source(), 2)
}

// searchers returns the reference oracle over the fixture's live stores and
// the view searcher with the same parameters and candidate mask.
func (f *roundFixture) searchers(depth int, omega1, omega2 float64, mask []bool) (*mapSearcher, *Searcher) {
	norm := f.stores[0].Config().Norm
	oracle := &mapSearcher{
		Neighbors: func(a AgentID) []AgentID { return f.adjTo[f.adjOff[a]:f.adjOff[a+1]] },
		Records:   func(holder, about AgentID) []Record { return f.stores[holder].Records(about) },
		RecordsAppend: func(holder, about AgentID, buf []Record) []Record {
			return f.stores[holder].AppendRecords(about, buf)
		},
		Norm: norm, MaxDepth: depth, Omega1: omega1, Omega2: omega2,
		CandidateFilter: func(id AgentID) bool { return mask[id] },
	}
	s := &Searcher{Norm: norm, MaxDepth: depth, Omega1: omega1, Omega2: omega2, CandidateMask: mask}
	return oracle, s
}

// randomMask admits about 70% of the fixture's agents as candidates.
func randomMask(n int, seed uint64) []bool {
	r := rand.New(rand.NewPCG(seed, 0x3a5c))
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = r.Float64() < 0.7
	}
	return mask
}

// assertSameResult requires bit-identical SearchResults (exact float64
// equality, same candidate order, same inquired count).
func assertSameResult(t *testing.T, label string, want, got SearchResult) {
	t.Helper()
	if got.Inquired != want.Inquired {
		t.Fatalf("%s: inquired %d, want %d", label, got.Inquired, want.Inquired)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates %v, want %d %v", label, len(got.Candidates), got.Candidates, len(want.Candidates), want.Candidates)
	}
	for i := range want.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, got.Candidates[i], want.Candidates[i])
		}
	}
}

// searchParams spans the chain bound and ω gating: ungated, gated with a
// stricter trustee threshold, and gated with a stricter recommender one.
var searchParams = []struct {
	depth          int
	omega1, omega2 float64
}{{2, 0, 0}, {3, 0.3, 0.5}, {3, 0.6, 0.2}}

// TestFindViewEquivalence asserts that the frozen-view search — with and
// without the edge memo — returns byte-identical SearchResults to the
// map-based reference oracle over the live stores, for each of the paper's
// three models, on randomized stores, thresholds, and candidate masks.
func TestFindViewEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		f := buildRoundFixture(t, seed)
		view := f.captureView(t)
		probes := f.searchProbes()
		mask := randomMask(f.n, seed)
		for _, pr := range searchParams {
			oracle, s := f.searchers(pr.depth, pr.omega1, pr.omega2, mask)
			for _, m := range []TrustModel{Traditional, Conservative, Aggressive} {
				memo := NewEdgeMemoPooled(view, s.Norm, 2, nil)
				memo.RequireModel(m, probes)
				var got SearchResult
				for x := 0; x < f.n; x++ {
					for _, tk := range probes {
						want := oracle.Find(AgentID(x), tk, m)
						label := fmt.Sprintf("seed=%d depth=%d ω=(%v,%v) %s trustor=%d task=%d",
							seed, pr.depth, pr.omega1, pr.omega2, m.Name(), x, tk.Type())
						s.FindViewModelInto(&got, view, memo, AgentID(x), tk, m)
						assertSameResult(t, label+" (memo)", want, got)
						s.FindViewModelInto(&got, view, nil, AgentID(x), tk, m)
						assertSameResult(t, label+" (no memo)", want, got)
					}
				}
			}
		}
	}
}

// aggressiveTwin is Aggressive under another name: the same
// Spec and the same HopTW. It is deliberately not registered.
type aggressiveTwin struct{}

func (aggressiveTwin) Name() string    { return "aggressive-twin" }
func (aggressiveTwin) Spec() ModelSpec { return Aggressive.Spec() }
func (aggressiveTwin) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	return Aggressive.HopTW(ctx, recs, t)
}

// TestSearchDispatchFollowsSpec: a model that copies Aggressive under
// another name searches bit-identically to it, with its own memo tables and
// without any — the per-characteristic path is chosen by the ModelSpec, not
// by recognizing the model.
func TestSearchDispatchFollowsSpec(t *testing.T) {
	agg, twin := Aggressive, TrustModel(aggressiveTwin{})
	for seed := uint64(1); seed <= 4; seed++ {
		f := buildRoundFixture(t, seed)
		view := f.captureView(t)
		probes := f.searchProbes()
		mask := randomMask(f.n, seed)
		for _, pr := range searchParams {
			_, s := f.searchers(pr.depth, pr.omega1, pr.omega2, mask)
			memo := NewEdgeMemoPooled(view, s.Norm, 1, nil)
			memo.RequireModel(agg, probes)
			memo.RequireModel(twin, probes)
			var want, got SearchResult
			for x := 0; x < f.n; x++ {
				for _, tk := range probes {
					label := fmt.Sprintf("seed=%d depth=%d trustor=%d task=%d", seed, pr.depth, x, tk.Type())
					s.FindViewModelInto(&want, view, memo, AgentID(x), tk, agg)
					s.FindViewModelInto(&got, view, memo, AgentID(x), tk, twin)
					assertSameResult(t, label+" (memo)", want, got)
					s.FindViewModelInto(&got, view, nil, AgentID(x), tk, twin)
					assertSameResult(t, label+" (no memo)", want, got)
				}
			}
		}
	}
}
