package report

import (
	"fmt"

	"siot/internal/stats"
)

// This file defines the resilience metrics the attack experiments report:
// how far apart a population's perceived trust of honest and attacking
// trustees drifts (trust gap), how quickly the gap opens (detection
// latency), and how much delegation success the attack costs
// (success degradation).

// Resilience aggregates the attack-resilience metrics of one scenario.
type Resilience struct {
	// TrustGap is the final-round honest-minus-attacker perceived-trust
	// gap: positive once the population has learned to distrust the
	// attackers.
	TrustGap float64
	// MinTrustGap is the lowest gap over the run — negative when an attack
	// (bad-mouthing, ballot-stuffing) managed to make attackers look MORE
	// trustworthy than honest trustees at some point.
	MinTrustGap float64
	// DetectionRound is the first round at which the gap reached the
	// detection threshold, or -1 if it never did (whitewashing aims
	// exactly for that). A single early crossing counts: the metric
	// measures how fast a signal first appears, not whether it persists —
	// the TrustGap/MinTrustGap pair covers durability.
	DetectionRound int
	// SuccessDegradation is the baseline cumulative delegation-success rate
	// minus the attacked one: how much service quality the attack cost.
	SuccessDegradation float64
}

// detectionLatency returns the first round index at which the trust-gap
// series reaches threshold, or -1 if it never does.
func detectionLatency(gap stats.Series, threshold float64) int {
	for i, v := range gap.Y {
		if v >= threshold {
			return i
		}
	}
	return -1
}

// NewResilience computes the metrics from a per-round trust-gap series and
// the cumulative success rates of the baseline (no attack) and attacked
// runs.
func NewResilience(gap stats.Series, threshold, baselineSuccess, attackedSuccess float64) Resilience {
	res := Resilience{
		DetectionRound:     detectionLatency(gap, threshold),
		SuccessDegradation: baselineSuccess - attackedSuccess,
	}
	if n := len(gap.Y); n > 0 {
		res.TrustGap = gap.Y[n-1]
		lo, _ := stats.MinMax(gap.Y)
		res.MinTrustGap = lo
	}
	return res
}

// AddRows appends the metrics to a two-column (metric, value) table.
func (r Resilience) AddRows(t *Table) {
	t.AddRow("trust gap (final)", fmt.Sprintf("%.3f", r.TrustGap))
	t.AddRow("trust gap (min)", fmt.Sprintf("%.3f", r.MinTrustGap))
	if r.DetectionRound < 0 {
		t.AddRow("detection latency", "undetected")
	} else {
		t.AddRow("detection latency", fmt.Sprintf("round %d", r.DetectionRound))
	}
	t.AddRow("success degradation", fmt.Sprintf("%.3f", r.SuccessDegradation))
}
