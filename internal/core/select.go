package core

import (
	"cmp"
	"slices"
)

// Candidate pairs a potential trustee with the trustworthiness the trustor
// perceives for the task at hand.
type Candidate struct {
	ID AgentID
	TW float64
}

// sortCandidates orders candidates by decreasing trustworthiness, breaking
// ties by ascending ID for determinism. It allocates nothing, keeping the
// search hot path pool-warm clean.
func sortCandidates(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.TW, a.TW); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// SelectMutual implements the mutual-evaluation selection of eq. 1 and
// Fig. 2: the trustor walks its candidates in decreasing trustworthiness
// order; each candidate performs a reverse evaluation of the trustor
// (accept), and the first candidate that accepts becomes the trustee. The
// second return value is false when every candidate refuses — the
// "unavailable" outcome of Fig. 7.
//
// A nil accept reproduces unilateral evaluation (θ_y(τ) = 0): the top
// candidate is always chosen.
func SelectMutual(cands []Candidate, accept func(AgentID) bool) (Candidate, bool) {
	ordered := append([]Candidate(nil), cands...)
	sortCandidates(ordered)
	for _, c := range ordered {
		if accept == nil || accept(c.ID) {
			return c, true
		}
	}
	return Candidate{}, false
}

// ExpCandidate pairs a potential trustee with the trustor's full expectation
// for the task, for the decision stage of §4.4.
type ExpCandidate struct {
	ID  AgentID
	Exp Expectation
}

// BestByNetProfit implements eq. 23: the rational assignment maximizing
// Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ (the paper's "second strategy"). Ties break toward the
// lower ID.
func BestByNetProfit(cands []ExpCandidate) (ExpCandidate, bool) {
	return bestBy(cands, func(e Expectation) float64 { return e.NetProfit() })
}

// BestBySuccessRate is the "first strategy" baseline of Fig. 13: choose the
// candidate with the highest expected success rate, ignoring gain, damage,
// and cost.
func BestBySuccessRate(cands []ExpCandidate) (ExpCandidate, bool) {
	return bestBy(cands, func(e Expectation) float64 { return e.S })
}

func bestBy(cands []ExpCandidate, score func(Expectation) float64) (ExpCandidate, bool) {
	if len(cands) == 0 {
		return ExpCandidate{}, false
	}
	best := cands[0]
	bestScore := score(best.Exp)
	for _, c := range cands[1:] {
		s := score(c.Exp)
		if s > bestScore || (s == bestScore && c.ID < best.ID) {
			best, bestScore = c, s
		}
	}
	return best, true
}

// ShouldDelegate implements eq. 24: the trustor delegates to the trustee
// rather than doing the task itself only if the trustee's expected net
// profit strictly exceeds its own.
func ShouldDelegate(self, trustee Expectation) bool {
	return trustee.NetProfit() > self.NetProfit()
}

// DecideWithSelf runs the full decision of §4.4 with the trustor itself as
// one of the candidates (eq. 24): it returns the best external candidate if
// delegation beats self-execution, otherwise (selfID, false) meaning the
// trustor keeps the task.
func DecideWithSelf(self Expectation, selfID AgentID, cands []ExpCandidate) (ExpCandidate, bool) {
	best, ok := BestByNetProfit(cands)
	if !ok || !ShouldDelegate(self, best.Exp) {
		return ExpCandidate{ID: selfID, Exp: self}, false
	}
	return best, true
}
