package core

import (
	"testing"
	"testing/quick"
)

func TestSortCandidates(t *testing.T) {
	c := []Candidate{{ID: 3, TW: 0.5}, {ID: 1, TW: 0.9}, {ID: 2, TW: 0.5}}
	sortCandidates(c)
	if c[0].ID != 1 || c[1].ID != 2 || c[2].ID != 3 {
		t.Fatalf("sorted = %v", c)
	}
}

func TestSelectMutualPicksBestAccepted(t *testing.T) {
	cands := []Candidate{{ID: 1, TW: 0.9}, {ID: 2, TW: 0.8}, {ID: 3, TW: 0.7}}
	// Trustee 1 refuses (reverse evaluation fails), 2 accepts: the paper's
	// Fig. 2 walk-through.
	got, ok := SelectMutual(cands, func(id AgentID) bool { return id != 1 })
	if !ok || got.ID != 2 {
		t.Fatalf("selected %v, want 2", got.ID)
	}
}

func TestSelectMutualAllRefuse(t *testing.T) {
	cands := []Candidate{{ID: 1, TW: 0.9}}
	if _, ok := SelectMutual(cands, func(AgentID) bool { return false }); ok {
		t.Fatal("selection succeeded with universal refusal")
	}
}

func TestSelectMutualNilAcceptIsUnilateral(t *testing.T) {
	cands := []Candidate{{ID: 2, TW: 0.8}, {ID: 1, TW: 0.9}}
	got, ok := SelectMutual(cands, nil)
	if !ok || got.ID != 1 {
		t.Fatalf("unilateral selection = %v", got.ID)
	}
}

func TestSelectMutualEmpty(t *testing.T) {
	if _, ok := SelectMutual(nil, nil); ok {
		t.Fatal("selection from no candidates succeeded")
	}
}

func TestSelectMutualDoesNotMutateInput(t *testing.T) {
	cands := []Candidate{{ID: 2, TW: 0.8}, {ID: 1, TW: 0.9}}
	SelectMutual(cands, nil)
	if cands[0].ID != 2 {
		t.Fatal("input slice reordered")
	}
}

func TestBestByNetProfit(t *testing.T) {
	cands := []ExpCandidate{
		{ID: 1, Exp: Expectation{S: 0.9, G: 0.1, D: 0.9, C: 0.5}}, // high S, bad profit
		{ID: 2, Exp: Expectation{S: 0.6, G: 0.9, D: 0.1, C: 0.1}}, // better profit
	}
	got, ok := BestByNetProfit(cands)
	if !ok || got.ID != 2 {
		t.Fatalf("BestByNetProfit picked %v", got.ID)
	}
}

func TestBestBySuccessRate(t *testing.T) {
	cands := []ExpCandidate{
		{ID: 1, Exp: Expectation{S: 0.9, G: 0.1, D: 0.9, C: 0.5}},
		{ID: 2, Exp: Expectation{S: 0.6, G: 0.9, D: 0.1, C: 0.1}},
	}
	got, ok := BestBySuccessRate(cands)
	if !ok || got.ID != 1 {
		t.Fatalf("BestBySuccessRate picked %v", got.ID)
	}
}

func TestBestEmpty(t *testing.T) {
	if _, ok := BestByNetProfit(nil); ok {
		t.Fatal("best of none succeeded")
	}
	if _, ok := BestBySuccessRate(nil); ok {
		t.Fatal("best of none succeeded")
	}
}

func TestBestTieBreaksByID(t *testing.T) {
	e := Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.5}
	cands := []ExpCandidate{{ID: 9, Exp: e}, {ID: 2, Exp: e}}
	got, _ := BestByNetProfit(cands)
	if got.ID != 2 {
		t.Fatalf("tie broke to %v, want 2", got.ID)
	}
}

func TestShouldDelegateEq24(t *testing.T) {
	self := Expectation{S: 0.7, G: 0.5, D: 0.2, C: 0.1}
	better := Expectation{S: 0.9, G: 0.8, D: 0.1, C: 0.1}
	worse := Expectation{S: 0.2, G: 0.3, D: 0.8, C: 0.5}
	if !ShouldDelegate(self, better) {
		t.Fatal("profitable delegation rejected")
	}
	if ShouldDelegate(self, worse) {
		t.Fatal("unprofitable delegation accepted")
	}
	// Strict inequality: equal profit means do it yourself.
	if ShouldDelegate(self, self) {
		t.Fatal("equal profit delegated")
	}
}

func TestDecideWithSelf(t *testing.T) {
	self := Expectation{S: 0.5, G: 0.5, D: 0.5, C: 0.2}
	strong := ExpCandidate{ID: 3, Exp: Expectation{S: 0.95, G: 0.9, D: 0.05, C: 0.05}}
	weak := ExpCandidate{ID: 4, Exp: Expectation{S: 0.1, G: 0.1, D: 0.9, C: 0.5}}

	got, delegated := DecideWithSelf(self, 0, []ExpCandidate{weak, strong})
	if !delegated || got.ID != 3 {
		t.Fatalf("decide = %v delegated=%v", got.ID, delegated)
	}
	got, delegated = DecideWithSelf(self, 0, []ExpCandidate{weak})
	if delegated || got.ID != 0 {
		t.Fatalf("expected self-execution, got %v", got.ID)
	}
	got, delegated = DecideWithSelf(self, 0, nil)
	if delegated || got.ID != 0 {
		t.Fatal("no candidates must mean self-execution")
	}
}

func TestQuickSelectMutualReturnsMaxAccepted(t *testing.T) {
	// Whatever the acceptance pattern, the selected candidate has the
	// maximum TW among accepted candidates.
	f := func(tws []float64, mask uint16) bool {
		if len(tws) == 0 {
			return true
		}
		if len(tws) > 16 {
			tws = tws[:16]
		}
		cands := make([]Candidate, len(tws))
		accepted := make(map[AgentID]bool)
		for i, tw := range tws {
			cands[i] = Candidate{ID: AgentID(i), TW: tw}
			accepted[AgentID(i)] = mask&(1<<i) != 0
		}
		got, ok := SelectMutual(cands, func(id AgentID) bool { return accepted[id] })
		var bestTW float64
		found := false
		for _, c := range cands {
			if accepted[c.ID] && (!found || c.TW > bestTW) {
				bestTW, found = c.TW, true
			}
		}
		if !found {
			return !ok
		}
		return ok && got.TW == bestTW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
