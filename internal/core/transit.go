package core

// CombinePair implements the two-hop trust transition of eq. 7:
//
//	TW_{A←C} = TW_{A←B}·TW_{B←C} + (1 − TW_{A←B})·(1 − TW_{B←C})
//
// The second term — mistrust toward the intermediate multiplied by the
// intermediate's incorrect judgment — is the correction the paper adds over
// the plain product of eq. 5.
func CombinePair(a, b float64) float64 {
	return float64(a*b) + float64((1-a)*(1-b))
}

// CombineSerial folds CombinePair left to right along a chain of hop
// trustworthiness values; an empty chain yields 1 (the identity of
// CombinePair: CombinePair(1, x) = x). The paper defines the two-hop case;
// folding is the natural extension for longer recommendation chains.
func CombineSerial(vals ...float64) float64 {
	acc := 1.0
	for _, v := range vals {
		acc = CombinePair(acc, v)
	}
	return acc
}

// ProductSerial is the traditional transitivity of eq. 5: the plain product
// of the hop trustworthiness values along the path.
func ProductSerial(vals ...float64) float64 {
	acc := 1.0
	for _, v := range vals {
		acc *= v
	}
	return acc
}

// TransitSameType evaluates the same-task-type transition of Fig. 4 and
// eq. 7: trust transits only when the recommender hop clears ω1 and the
// trustee hop clears ω2. ok is false when the transition is blocked.
func TransitSameType(recTW, trusteeTW, omega1, omega2 float64) (tw float64, ok bool) {
	if recTW < omega1 || trusteeTW < omega2 {
		return 0, false
	}
	return CombinePair(recTW, trusteeTW), true
}

// Searcher holds the parameters of trust-transitivity discovery
// (FindViewModelInto): the recommendation-chain bound, the ω thresholds, and
// which nodes may become potential trustees.
type Searcher struct {
	// MaxDepth bounds the recommendation-chain length (number of hops).
	MaxDepth int
	// Omega1 is the recommender threshold ω1: an intermediate node's hop
	// trustworthiness must reach it for the chain to continue.
	Omega1 float64
	// Omega2 is the trustee threshold ω2: the final hop's trustworthiness
	// must reach it for the node to count as a potential trustee.
	Omega2 float64
	// CandidateMask, when non-nil, restricts which nodes may become
	// potential trustees, indexed by agent slot (any node may still relay
	// recommendations). The simulations use it to limit candidacy to
	// trustee-role agents, as in the paper's 40%/40% role split.
	CandidateMask []bool
}

// SearchResult is the outcome of a transitivity search.
type SearchResult struct {
	// Candidates lists the potential trustees found, with the inferred
	// trustworthiness of each, sorted by decreasing trustworthiness.
	Candidates []Candidate
	// Inquired is the number of distinct nodes interrogated during the
	// search — the search-overhead measure of Fig. 12.
	Inquired int
}

// Best returns the top candidate.
func (r SearchResult) Best() (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	return r.Candidates[0], true
}
