package core

import (
	"errors"
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
	s := &Searcher{MaxDepth: depth, Omega1: omega1, Omega2: omega2, CandidateMask: mask}
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

// mustFind runs FindViewModelInto, failing the test on an error.
func mustFind(t *testing.T, s *Searcher, res *SearchResult, view *TrustView, memo *EdgeMemo, trustor AgentID, tk task.Task, m TrustModel) {
	t.Helper()
	if err := s.FindViewModelInto(res, view, memo, trustor, tk, m); err != nil {
		t.Fatal(err)
	}
}

// assertNotRequired requires both entry points to refuse a search memo does
// not cover: FindViewModelInto empties its result and TrustInto answers
// (0, false), each with an error wrapping ErrNotRequired.
func assertNotRequired(t *testing.T, label string, s *Searcher, view *TrustView, memo *EdgeMemo, trustor, trustee AgentID, tk task.Task, m TrustModel) {
	t.Helper()
	res := SearchResult{Candidates: []Candidate{{ID: trustee, TW: 1}}, Inquired: 1}
	if err := s.FindViewModelInto(&res, view, memo, trustor, tk, m); !errors.Is(err, ErrNotRequired) || len(res.Candidates) != 0 || res.Inquired != 0 {
		t.Fatalf("%s: FindViewModelInto = %+v, %v; want an empty result and ErrNotRequired", label, res, err)
	}
	if tw, ok, err := s.TrustInto(view, memo, trustor, trustee, tk, m); !errors.Is(err, ErrNotRequired) || tw != 0 || ok {
		t.Fatalf("%s: TrustInto = (%v, %v, %v); want (0, false) and ErrNotRequired", label, tw, ok, err)
	}
}

// searchParams spans the chain bound and ω gating: ungated, gated with a
// stricter trustee threshold, and gated with a stricter recommender one.
var searchParams = []struct {
	depth          int
	omega1, omega2 float64
}{{2, 0, 0}, {3, 0.3, 0.5}, {3, 0.6, 0.2}}

// TestFindViewEquivalence asserts that the frozen-view search over a
// required memo returns byte-identical SearchResults to the map-based
// reference oracle over the live stores, for each of the paper's three
// models, on randomized stores, thresholds, and candidate masks — and that
// without a memo both entry points refuse the search.
func TestFindViewEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		f := buildRoundFixture(t, seed)
		view := f.captureView(t)
		probes := f.searchProbes()
		mask := randomMask(f.n, seed)
		for _, pr := range searchParams {
			oracle, s := f.searchers(pr.depth, pr.omega1, pr.omega2, mask)
			for _, m := range []TrustModel{Traditional, Conservative, Aggressive} {
				memo := NewEdgeMemoPooled(view, oracle.Norm, 2, nil)
				memo.RequireModel(m, probes)
				var got SearchResult
				for x := 0; x < f.n; x++ {
					for _, tk := range probes {
						want := oracle.Find(AgentID(x), tk, m)
						label := fmt.Sprintf("seed=%d depth=%d ω=(%v,%v) %s trustor=%d task=%d",
							seed, pr.depth, pr.omega1, pr.omega2, m.Name(), x, tk.Type())
						mustFind(t, s, &got, view, memo, AgentID(x), tk, m)
						assertSameResult(t, label+" (memo)", want, got)
						assertNotRequired(t, label+" (no memo)", s, view, nil, AgentID(x), AgentID((x+1)%f.n), tk, m)
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
// another name searches bit-identically to it from its own memo tables —
// the per-characteristic path is chosen by the ModelSpec, not by
// recognizing the model — and without a memo is refused like any model.
func TestSearchDispatchFollowsSpec(t *testing.T) {
	agg, twin := Aggressive, TrustModel(aggressiveTwin{})
	for seed := uint64(1); seed <= 4; seed++ {
		f := buildRoundFixture(t, seed)
		view := f.captureView(t)
		probes := f.searchProbes()
		mask := randomMask(f.n, seed)
		for _, pr := range searchParams {
			oracle, s := f.searchers(pr.depth, pr.omega1, pr.omega2, mask)
			memo := NewEdgeMemoPooled(view, oracle.Norm, 1, nil)
			memo.RequireModel(agg, probes)
			memo.RequireModel(twin, probes)
			var want, got SearchResult
			for x := 0; x < f.n; x++ {
				for _, tk := range probes {
					label := fmt.Sprintf("seed=%d depth=%d trustor=%d task=%d", seed, pr.depth, x, tk.Type())
					mustFind(t, s, &want, view, memo, AgentID(x), tk, agg)
					mustFind(t, s, &got, view, memo, AgentID(x), tk, twin)
					assertSameResult(t, label+" (memo)", want, got)
					assertNotRequired(t, label+" (no memo)", s, view, nil, AgentID(x), AgentID((x+1)%f.n), tk, twin)
				}
			}
		}
	}
}

// TestSearchRequiresCoveringMemo: a search reads only memo tables, so every
// memo that does not cover it is refused with ErrNotRequired by both entry
// points, never answered from another table and never a panic — a nil
// memo, a memo over a second capture of the same stores, a memo never
// required, a same-type task with other contents, and an epoch-trainable
// model RequireModel never trained. A covering memo answers the same
// queries without error.
func TestSearchRequiresCoveringMemo(t *testing.T) {
	f := buildRoundFixture(t, 3)
	view, other := f.captureView(t), f.captureView(t)
	oracle, s := f.searchers(3, 0.3, 0.5, nil)
	required := task.Uniform(7, task.CharGPS, task.CharImage)
	sameType := task.Uniform(7, task.CharAudio)
	paper := []TrustModel{Traditional, Conservative, Aggressive}
	hmf := mustParseModel(t, "hellinger-mf")
	covering := NewEdgeMemoPooled(view, oracle.Norm, 1, nil)
	overOther := NewEdgeMemoPooled(other, oracle.Norm, 1, nil)
	for _, m := range paper {
		covering.RequireModel(m, []task.Task{required})
		overOther.RequireModel(m, []task.Task{required})
	}
	cases := []struct {
		name   string
		memo   *EdgeMemo
		tk     task.Task
		models []TrustModel
	}{
		{"nil memo", nil, required, paper},
		{"memo over a second capture", overOther, required, paper},
		{"memo never required", NewEdgeMemoPooled(view, oracle.Norm, 1, nil), required, paper},
		{"same-type task with other contents", covering, sameType, paper},
		{"untrained hellinger-mf", covering, required, []TrustModel{hmf}},
	}
	for _, c := range cases {
		for _, m := range c.models {
			for x := 0; x < f.n; x++ {
				label := fmt.Sprintf("%s: %s trustor=%d", c.name, m.Name(), x)
				assertNotRequired(t, label, s, view, c.memo, AgentID(x), AgentID((x+1)%f.n), c.tk, m)
			}
		}
	}
	var res SearchResult
	for _, m := range paper {
		for x := 0; x < f.n; x++ {
			mustFind(t, s, &res, view, covering, AgentID(x), required, m)
			if _, _, err := s.TrustInto(view, covering, AgentID(x), AgentID((x+1)%f.n), required, m); err != nil {
				t.Fatalf("covering memo: %s trustor=%d: %v", m.Name(), x, err)
			}
		}
	}
}
