package sim

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// netProfitArm names one rule of the net-profit loop: a Fig. 13 strategy
// (NetProfitRun) or one arm of the eq. 24 ablation (SelfDelegationRun).
type netProfitArm struct {
	ablation bool
	strategy Strategy // Fig. 13 arms
	withSelf bool     // ablation arms
}

func (a netProfitArm) String() string {
	if a.ablation {
		return fmt.Sprintf("self-delegation withSelf=%v", a.withSelf)
	}
	return a.strategy.String()
}

// run plays the arm on the engine.
func (a netProfitArm) run(e *Engine, iterations int, seed uint64) []float64 {
	if a.ablation {
		return e.SelfDelegationRun(iterations, a.withSelf, seed)
	}
	return e.NetProfitRun(iterations, a.strategy, seed)
}

// netProfitOracle is the reference net-profit loop: serial, with a truth
// map, and every trustor's candidates filtered from its neighbors and read
// from its store through Store.Expectation in every iteration. label is
// the engine label a Fig. 13 arm keys its sub-streams by.
func netProfitOracle(p *Population, arm netProfitArm, label string, iterations int, seed uint64) []float64 {
	name := p.Net.Profile.Name
	var r *rand.Rand
	if arm.ablation {
		r = rng.New(seed, "netprofit-self", name, fmt.Sprint(arm.withSelf))
	} else {
		r = rng.New(seed, "engine-netprofit", name, arm.strategy.String())
		label = "engine-netprofit:" + label + ":" + name + ":" + arm.strategy.String()
	}
	truths := make(map[core.AgentID]trusteeTruth, len(p.Trustees))
	for _, y := range p.Trustees {
		truths[y] = trusteeTruth{S: r.Float64(), G: r.Float64(), D: r.Float64(), C: r.Float64()}
	}
	tk := task.Uniform(0, task.CharCompute)
	series := make([]float64, iterations)
	for it := range series {
		var sum float64
		active := 0
		for _, x := range p.Trustors {
			store := p.Agent(x).Store
			var cands []core.ExpCandidate
			for _, y := range p.Neighbors(x) {
				if k := p.Agent(y).Kind; k == agent.KindTrustee || k == agent.KindDishonestTrustee {
					cands = append(cands, core.ExpCandidate{ID: y, Exp: store.Expectation(y, tk.Type())})
				}
			}
			comp := p.Agent(x).Behavior.BaseCompetence
			self := trusteeTruth{S: comp, G: comp * 0.9, D: (1 - comp) * 0.5, C: 0.1}
			var chosen core.ExpCandidate
			var ok bool
			switch {
			case arm.ablation && arm.withSelf:
				chosen, ok = core.DecideWithSelf(core.Expectation(self), x, cands)
			case !arm.ablation && arm.strategy == StrategySuccessRate:
				chosen, ok = core.BestBySuccessRate(cands)
			default:
				chosen, ok = core.BestByNetProfit(cands)
			}
			truth := truths[chosen.ID]
			var u float64
			switch {
			case !ok && !arm.ablation:
				continue // no candidate: sits the iteration out
			case !ok:
				truth = self
				u = r.Float64()
			case arm.ablation:
				u = r.Float64()
			default:
				u = rng.Split2(seed, label, it, int(x)).Float64()
			}
			success := u < truth.S
			sum += truth.realizedProfit(success)
			active++
			if ok {
				store.Observe(chosen.ID, tk, truth.outcome(success), core.PerfectEnv())
			}
		}
		if active > 0 {
			series[it] = sum / float64(active)
		}
	}
	return series
}

// savedStores serializes every trustor's store.
func savedStores(t *testing.T, p *Population) [][]byte {
	t.Helper()
	out := make([][]byte, len(p.Trustors))
	for i, x := range p.Trustors {
		var b bytes.Buffer
		if err := p.Agent(x).Store.Save(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}
