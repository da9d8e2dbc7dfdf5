package sim

// MutualityCounters aggregates the Fig. 7 metrics.
type MutualityCounters struct {
	// Requests counts delegation requests issued by trustors.
	Requests int
	// Successes counts delegations whose task was accomplished.
	Successes int
	// Unavailable counts requests no trustee accepted ("some trustors may
	// not find any trustee to accept task τ because of the low
	// trustworthiness values in the reverse evaluations").
	Unavailable int
	// Uses counts granted uses of trustee resources; Abuses the abusive
	// subset.
	Uses   int
	Abuses int
	// AttackerDelegations counts accepted delegations that landed on an
	// attacking trustee (always 0 without an attack scenario).
	AttackerDelegations int
}

// SuccessRate is successes over requests.
func (c MutualityCounters) SuccessRate() float64 { return ratio(c.Successes, c.Requests) }

// UnavailableRate is unanswered requests over requests.
func (c MutualityCounters) UnavailableRate() float64 { return ratio(c.Unavailable, c.Requests) }

// AbuseRate is abusive uses over all uses of trustees' resources.
func (c MutualityCounters) AbuseRate() float64 { return ratio(c.Abuses, c.Uses) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
