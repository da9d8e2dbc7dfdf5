package sim

import (
	"math/rand/v2"

	"siot/internal/task"
)

// TransitivitySetup configures the transitivity experiments of §5.5.
type TransitivitySetup struct {
	// Universe is the closed set of task types circulating in the network.
	Universe task.Universe
	// MaxDepth bounds the recommendation chains.
	MaxDepth int
	// Omega1, Omega2 are the ω thresholds of eqs. 7 and 11.
	Omega1, Omega2 float64
}

// The experience seeding of §5.5.
const (
	// tasksPerNode is how many experienced task types each node carries
	// ("Every network node keeps the trustworthiness records of two
	// different tasks").
	tasksPerNode = 2
	// recordNoise perturbs seeded expectations around the node's actual
	// capability ("neighboring nodes ... establish the trustworthiness of
	// this node that approaches its actual capability").
	recordNoise float64 = 0.08
	// recordDensity is the probability that a given social neighbor holds
	// direct experience records about a node. Real networks are sparse in
	// experience — only "neighboring nodes that have direct experiences"
	// carry records — and this density reproduces the paper's unavailable
	// rates and potential-trustee counts.
	recordDensity float64 = 0.55
	// unknownFrac is the fraction of nodes nobody has experience with yet
	// (newcomers). Zero-inflating experience reproduces the paper's lumpy
	// availability: many trustors find no candidate while the others find
	// several good ones.
	unknownFrac float64 = 0.3
)

// DefaultTransitivitySetup mirrors the paper's parameters for a given
// characteristic-alphabet size. The ω thresholds are 0: §5.5 describes the
// delegation operationally — requests are relayed through any node with
// relevant experience and the trustor picks the candidate with the highest
// transferred trustworthiness — so selection, not gating, does the work.
// (With ω1 = 0 the aggressive candidate set provably contains the
// conservative one, which is the containment behind Fig. 11.)
func DefaultTransitivitySetup(numChars int, r *rand.Rand) TransitivitySetup {
	return TransitivitySetup{
		Universe: task.NewUniverse(2*numChars, numChars, r),
		MaxDepth: 2,
		Omega1:   0,
		Omega2:   0,
	}
}

// TransitivityStats aggregates the per-trustor results of one transitivity
// run — the metrics of Figs. 9–12 and Table 2.
type TransitivityStats struct {
	Requests    int
	Successes   int
	Unavailable int
	// PotentialTrustees sums the candidate counts (Fig. 11 divides by
	// Requests).
	PotentialTrustees int
	// InquiredPerTrustor records each trustor's search overhead (Fig. 12).
	InquiredPerTrustor []int
}

// SuccessRate is successes over requests.
func (s TransitivityStats) SuccessRate() float64 { return ratio(s.Successes, s.Requests) }

// UnavailableRate is unanswered requests over requests.
func (s TransitivityStats) UnavailableRate() float64 { return ratio(s.Unavailable, s.Requests) }

// AvgPotentialTrustees is the mean candidate count per request.
func (s TransitivityStats) AvgPotentialTrustees() float64 {
	return ratio(s.PotentialTrustees, s.Requests)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
