package experiments

import (
	"fmt"
	"math"

	"siot/internal/adversary"
	"siot/internal/report"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
	"siot/internal/task"
)

// AttackScenarioConfig parameterizes one trust-attack resilience scenario:
// the paper's mutuality delegation rounds replayed with a ring of trustees
// running an adversary model, against a no-attack baseline of the same
// population.
type AttackScenarioConfig struct {
	// Model is the attack the ring runs (required).
	Model adversary.Attack
	// Network selects the social network profile (default "facebook").
	Network string
	// Rounds is the number of delegation rounds (default 150).
	Rounds int
	// Attackers is the ring size (default 30 — roughly a fifth of the
	// facebook profile's trustees).
	Attackers int
	// Theta is the reverse-evaluation threshold installed on trustees
	// (default 0: keep the mutuality defense out of the way so the trust
	// model itself does the detecting).
	Theta float64
}

// DefaultAttackConfig returns the standard scenario for one attack model.
func DefaultAttackConfig(model adversary.Attack) AttackScenarioConfig {
	return AttackScenarioConfig{
		Model:     model,
		Network:   "facebook",
		Rounds:    150,
		Attackers: 30,
	}
}

// detectionGap is the honest-minus-attacker trust gap that counts as "the
// population has detected the attack": under the honest-ring baseline the
// gap hovers around zero, so a persistent 0.03 is already a clear signal
// across a whole network's averages.
const detectionGap = 0.03

// AttackResult reports how the trust model withstood one attack scenario.
type AttackResult struct {
	Model     string
	Network   string
	Attackers int
	// TrustGap is the per-round honest-minus-attacker perceived-trust gap
	// of the attacked run.
	TrustGap stats.Series
	// BaselineSuccess and AttackedSuccess are the per-round cumulative
	// delegation-success rates without and with the attack.
	BaselineSuccess stats.Series
	AttackedSuccess stats.Series
	// AttackerShare is the per-round cumulative share of accepted
	// delegations that landed on attackers.
	AttackerShare stats.Series
	// Resilience aggregates the final metrics.
	Resilience report.Resilience
}

// scenarioTask is the task every attack scenario's rounds and probes use.
var scenarioTask = task.Uniform(1, task.CharCompute)

// network generates the scenario's social network under seed.
func (cfg AttackScenarioConfig) network(seed uint64) *socialgen.Network {
	profile, err := socialgen.ProfileByName(cfg.Network)
	if err != nil {
		panic(err)
	}
	return socialgen.Generate(profile, seed)
}

// play runs the scenario's delegation rounds under o on a fresh population
// of net whose ring of cfg.Attackers trustees runs atk, on an engine labelled
// label, and returns the cumulative counters. after, when not nil, sees the
// engine, the round and the counters once each round has merged: the
// attacked runs probe there. The baselines are not probed; a probe is
// read-only (sim's TestPerceivedTrustIsReadOnly), so that changes no byte
// of the run.
func (cfg AttackScenarioConfig) play(o Options, net *socialgen.Network, atk adversary.Attack, label string, after func(eng *sim.Engine, round int, c *sim.MutualityCounters)) sim.MutualityCounters {
	pcfg := sim.DefaultPopulationConfig(o.Seed)
	pcfg.Theta = cfg.Theta
	pcfg.Parallelism = o.Parallelism
	pcfg.Attack = sim.AttackConfig{Model: atk, Attackers: cfg.Attackers}
	eng := sim.NewEngine(sim.NewPopulation(net, pcfg), label)
	var c sim.MutualityCounters
	for round := 0; round < cfg.Rounds; round++ {
		eng.MutualityRound(round, scenarioTask, &c)
		if after != nil {
			after(eng, round, &c)
		}
	}
	return c
}

// RunAttack plays the scenario twice under o's seed and width — once
// without the attack (baseline), once with it — and measures the resilience
// metrics. Both runs share the network, the seed, and the engine label, so
// every difference is the attack's doing. o.Model is not read.
func RunAttack(o Options, cfg AttackScenarioConfig) AttackResult {
	if cfg.Model == nil {
		panic("experiments: attack scenario needs a model")
	}
	net := cfg.network(o.Seed)
	const label = "attack-scenario"

	// The baseline ring runs the null attack: same population, same marked
	// ring, same recommendation machinery — only the malice is missing, so
	// the baseline-vs-attacked difference is exactly the attack's effect.
	baseline := make([]float64, cfg.Rounds)
	cfg.play(o, net, adversary.Honest{}, label, func(_ *sim.Engine, round int, c *sim.MutualityCounters) {
		baseline[round] = c.SuccessRate()
	})
	attacked, share, gap := make([]float64, cfg.Rounds), make([]float64, cfg.Rounds), make([]float64, cfg.Rounds)
	cfg.play(o, net, cfg.Model, label, func(eng *sim.Engine, round int, c *sim.MutualityCounters) {
		attacked[round] = c.SuccessRate()
		if c.Requests > c.Unavailable {
			share[round] = float64(c.AttackerDelegations) / float64(c.Requests-c.Unavailable)
		}
		honest, attacker := eng.PerceivedTrust(round, scenarioTask)
		gap[round] = honest - attacker
	})

	res := AttackResult{
		Model:           cfg.Model.Name(),
		Network:         cfg.Network,
		Attackers:       cfg.Attackers,
		TrustGap:        stats.NewSeries("trust gap (honest − attacker)", gap),
		BaselineSuccess: stats.NewSeries("baseline (no attack)", baseline),
		AttackedSuccess: stats.NewSeries("under "+cfg.Model.Name(), attacked),
		AttackerShare:   stats.NewSeries("share of delegations to attackers", share),
	}
	res.Resilience = report.NewResilience(res.TrustGap, detectionGap,
		baseline[len(baseline)-1], attacked[len(attacked)-1])
	return res
}

// Table summarizes the scenario's resilience metrics.
func (r AttackResult) Table() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Attack resilience: %s (%d attackers, %s network)", r.Model, r.Attackers, r.Network),
		Headers: []string{"Metric", "Value"},
	}
	t.AddRow("baseline success rate", fmt.Sprintf("%.3f", last(r.BaselineSuccess.Y)))
	t.AddRow("attacked success rate", fmt.Sprintf("%.3f", last(r.AttackedSuccess.Y)))
	t.AddRow("attacker delegation share", fmt.Sprintf("%.3f", last(r.AttackerShare.Y)))
	r.Resilience.AddRows(t)
	return t
}

// Charts renders the resilience curves.
func (r AttackResult) Charts() []report.Chart {
	return []report.Chart{
		{
			Title:  fmt.Sprintf("Trust gap under %s", r.Model),
			Series: []stats.Series{r.TrustGap},
			XLabel: "round", YLabel: "honest TW − attacker TW",
		},
		{
			Title:  fmt.Sprintf("Delegation success under %s", r.Model),
			Series: []stats.Series{r.BaselineSuccess, r.AttackedSuccess},
			XLabel: "round", YLabel: "cumulative success rate",
		},
	}
}

// ShapeCheck verifies the scenario behaved like a real attack and the model
// reacted: the run produced finite metrics and at least one resilience
// signal (a perceptible trust gap or a success-rate cost) is nonzero.
func (r AttackResult) ShapeCheck() []error {
	c := &shapeCheck{experiment: "attack-" + r.Model}
	for _, s := range []stats.Series{r.TrustGap, r.BaselineSuccess, r.AttackedSuccess, r.AttackerShare} {
		if err := s.Validate(); err != nil {
			c.expect(false, "series %q invalid: %v", s.Name, err)
		}
	}
	for _, v := range append(append([]float64{}, r.BaselineSuccess.Y...), r.AttackedSuccess.Y...) {
		c.expect(v >= 0 && v <= 1, "success rate %v outside [0,1]", v)
	}
	gapSignal := math.Abs(r.Resilience.TrustGap) > 0.02 || math.Abs(r.Resilience.MinTrustGap) > 0.02
	degradation := r.Resilience.SuccessDegradation > 0.005
	c.expect(gapSignal || degradation,
		"no resilience signal: final gap %.4f, min gap %.4f, degradation %.4f",
		r.Resilience.TrustGap, r.Resilience.MinTrustGap, r.Resilience.SuccessDegradation)
	return c.errs
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}
