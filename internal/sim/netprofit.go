package sim

import (
	"fmt"
	"math/rand/v2"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// Strategy selects the trustee-choice rule of the Fig. 13 experiment.
type Strategy int

const (
	// StrategySuccessRate is the paper's "first strategy": delegate to the
	// trustee with the highest expected success rate.
	StrategySuccessRate Strategy = iota
	// StrategyNetProfit is the "second strategy" (eq. 23): maximize
	// Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ.
	StrategyNetProfit
)

// String names the strategy as in Fig. 13's legend.
func (s Strategy) String() string {
	if s == StrategySuccessRate {
		return "first strategy"
	}
	return "second strategy"
}

// trusteeTruth is the hidden (S*, G*, D*, C*) of one trustee: it succeeds
// with probability S*; success yields gain G* at cost C*, failure damage D*
// at cost C* ("we assign each potential trustee random values of the
// expected success rate, gain, damage, and cost ... in [0, 1]").
type trusteeTruth struct {
	S, G, D, C float64
}

// realizedProfit returns the trustor-side profit of one delegation.
func (t trusteeTruth) realizedProfit(success bool) float64 {
	if success {
		return t.G - t.C
	}
	return -t.D - t.C
}

// outcome converts one delegation into a trust-model observation.
func (t trusteeTruth) outcome(success bool) core.Outcome {
	o := core.Outcome{Success: success, Cost: t.C}
	if success {
		o.Gain = t.G
	} else {
		o.Damage = t.D
	}
	return o
}

// NetProfitRunSelf iterates the eq. 23 strategy with, optionally, the
// trustor itself as one of the candidates (eq. 24): "although the agent has
// resource and capability to accomplish the task, he trusts and delegates
// the task to others if there is more net profit." With withSelf false the
// trustor must always delegate. Returns the average realized net profit per
// iteration.
func NetProfitRunSelf(p *Population, iterations int, withSelf bool, seed uint64) []float64 {
	r := rng.New(seed, "netprofit-self", p.Net.Profile.Name, fmt.Sprint(withSelf))
	truths := drawTruths(p, r)
	tk := task.Uniform(0, task.CharCompute)
	series := make([]float64, iterations)

	// The trustor knows its own competence exactly; self-execution has no
	// counterparty damage exposure beyond its own failure and a small cost.
	selfTruth := func(x core.AgentID) trusteeTruth {
		comp := p.Agent(x).Behavior.BaseCompetence
		return trusteeTruth{S: comp, G: comp * 0.9, D: (1 - comp) * 0.5, C: 0.1}
	}

	for it := 0; it < iterations; it++ {
		var sum float64
		active := 0
		for _, x := range p.Trustors {
			trustor := p.Agent(x)
			nbrs := p.TrusteeNeighbors(x)
			cands := make([]core.ExpCandidate, 0, len(nbrs))
			for _, y := range nbrs {
				rec, ok := trustor.Store.Record(y, tk.Type())
				exp := trustor.Store.Config().Init
				if ok {
					exp = rec.Exp
				}
				cands = append(cands, core.ExpCandidate{ID: y, Exp: exp})
			}
			st := selfTruth(x)
			selfExp := core.Expectation{S: st.S, G: st.G, D: st.D, C: st.C}

			var truth trusteeTruth
			var chosenID core.AgentID
			delegated := true
			if withSelf {
				chosen, ok := core.DecideWithSelf(selfExp, x, cands)
				chosenID, delegated = chosen.ID, ok
				if delegated {
					truth = truths[chosenID]
				} else {
					truth = st
				}
			} else {
				chosen, ok := core.BestByNetProfit(cands)
				if !ok {
					// No candidates at all: forced self-execution even in
					// the always-delegate arm.
					truth, delegated = st, false
				} else {
					chosenID, truth = chosen.ID, truths[chosen.ID]
				}
			}
			success := r.Float64() < truth.S
			sum += truth.realizedProfit(success)
			active++
			if delegated {
				trustor.Store.Observe(chosenID, tk, truth.outcome(success), core.PerfectEnv())
			}
		}
		if active > 0 {
			series[it] = sum / float64(active)
		}
	}
	return series
}

// drawTruths assigns hidden behavior parameters to every trustee.
func drawTruths(p *Population, r *rand.Rand) map[core.AgentID]trusteeTruth {
	truths := make(map[core.AgentID]trusteeTruth, len(p.Trustees))
	for _, y := range p.Trustees {
		truths[y] = trusteeTruth{
			S: r.Float64(), G: r.Float64(), D: r.Float64(), C: r.Float64(),
		}
	}
	return truths
}
