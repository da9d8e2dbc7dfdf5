package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"

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
type trusteeTruth core.Expectation

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

// NetProfitRun iterates continuous task delegations under the given
// strategy and returns the average realized net profit of the trustors at
// every iteration — one curve of Fig. 13. Trustee ground truths are drawn
// once per run, serially; trustor expectations start at the neutral prior
// and are updated with the store's forgetting factors after every
// delegation, so the curves show the learning dynamics of the two
// strategies. A trustor without a trustee neighbor sits every iteration
// out. The success draws come from per-(iteration, trustor) sub-streams.
func (e *Engine) NetProfitRun(iterations int, strategy Strategy, seed uint64) []float64 {
	p := e.Pop
	truths := drawTruths(p, rng.New(seed, "engine-netprofit", p.Net.Profile.Name, strategy.String()))
	label := "engine-netprofit:" + e.Label + ":" + p.Net.Profile.Name + ":" + strategy.String()
	best := core.BestByNetProfit
	if strategy == StrategySuccessRate {
		best = core.BestBySuccessRate
	}
	return e.netProfitLoop(iterations, truths,
		func(_ core.AgentID, row []core.ExpCandidate) core.AgentID {
			if c, ok := best(row); ok {
				return c.ID
			}
			return sitOut
		},
		func(it int, x core.AgentID) float64 { return rng.Split2(seed, label, it, int(x)).Float64() })
}

// SelfDelegationRun iterates the eq. 23 strategy with, optionally, the
// trustor itself as one of the candidates (eq. 24): "although the agent has
// resource and capability to accomplish the task, he trusts and delegates
// the task to others if there is more net profit." With withSelf false the
// trustor must delegate whenever it has a candidate; one without any
// executes the task itself in both arms. Returns the average realized net
// profit per iteration. The truths and then the success draws, one per
// trustor and iteration in ascending trustor order, come from one stream.
func (e *Engine) SelfDelegationRun(iterations int, withSelf bool, seed uint64) []float64 {
	p := e.Pop
	r := rng.New(seed, "netprofit-self", p.Net.Profile.Name, fmt.Sprint(withSelf))
	truths := drawTruths(p, r)
	// The trustor knows its own competence exactly; self-execution has no
	// counterparty damage exposure beyond its own failure and a small cost.
	for _, x := range p.Trustors {
		comp := p.Agent(x).Behavior.BaseCompetence
		truths[x] = trusteeTruth{S: comp, G: comp * 0.9, D: (1 - comp) * 0.5, C: 0.1}
	}
	return e.netProfitLoop(iterations, truths,
		func(x core.AgentID, row []core.ExpCandidate) core.AgentID {
			if withSelf {
				c, _ := core.DecideWithSelf(core.Expectation(truths[x]), x, row)
				return c.ID
			}
			if c, ok := core.BestByNetProfit(row); ok {
				return c.ID
			}
			return x
		},
		func(int, core.AgentID) float64 { return r.Float64() })
}

// sitOut is the net-profit choice of a trustor that neither delegates nor
// executes the task itself this iteration.
const sitOut core.AgentID = -1

// netProfitLoop runs iterations of continuous task delegation and returns
// the average realized net profit of the acting trustors per iteration.
// Each trustor's candidate row of expectations is read from its store once
// and carried across iterations: the merge's Observe, the loop's only
// store write, patches the delegated entry with the record it returns.
//
// An iteration runs in two phases. The trustors choose in parallel through
// choose, which returns a candidate of the row, the trustor itself (it
// executes the task) or sitOut, and must write nothing shared. The merge
// then runs serially in ascending trustor order: for every acting trustor
// it calls draw once, realizes the profit against truths (indexed by
// agent; a trustor's own slot holds its self-execution truth) and observes
// a delegation. Every draw happens in the merge, so a single stream keeps
// its order and the series is identical at every worker count.
func (e *Engine) netProfitLoop(iterations int, truths []trusteeTruth,
	choose func(x core.AgentID, row []core.ExpCandidate) core.AgentID,
	draw func(it int, x core.AgentID) float64) []float64 {
	p := e.Pop
	tk := task.Uniform(0, task.CharCompute) // one generic task type
	exps := make([]core.ExpCandidate, len(p.rows))
	for _, x := range p.Trustors {
		store := p.Agent(x).Store
		lo := p.rowOff[x]
		for k, c := range p.candidates(x) {
			exps[lo+int32(k)] = core.ExpCandidate{ID: c.ID, Exp: store.Expectation(c.ID, tk.Type())}
		}
	}
	row := func(x core.AgentID) []core.ExpCandidate { return exps[p.rowOff[x]:p.rowOff[x+1]] }
	series := make([]float64, iterations)
	workers := e.workers()
	for it := range series {
		picks := mapTrustors(p.Trustors, workers, func(x core.AgentID) core.AgentID { return choose(x, row(x)) })
		var sum float64
		active := 0
		for i, x := range p.Trustors {
			y := picks[i]
			if y == sitOut {
				continue
			}
			truth := truths[y]
			success := draw(it, x) < truth.S
			sum += truth.realizedProfit(success)
			active++
			if y != x {
				r := row(x)
				k := sort.Search(len(r), func(k int) bool { return r[k].ID >= y })
				r[k].Exp = p.Agent(x).Store.Observe(y, tk, truth.outcome(success), core.PerfectEnv()).Exp
			}
		}
		if active > 0 {
			series[it] = sum / float64(active)
		}
	}
	return series
}

// drawTruths assigns hidden behavior parameters to every trustee, indexed
// by agent.
func drawTruths(p *Population, r *rand.Rand) []trusteeTruth {
	truths := make([]trusteeTruth, len(p.Agents))
	for _, y := range p.Trustees {
		truths[y] = trusteeTruth{
			S: r.Float64(), G: r.Float64(), D: r.Float64(), C: r.Float64(),
		}
	}
	return truths
}
