package sim

import (
	"siot/internal/adversary"
	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// AttackConfig injects a trust-attack scenario into a population: a subset
// of the trustees runs an adversary.Attack model against the delegation
// rounds.
type AttackConfig struct {
	// Model is the attack every attacker runs; nil disables the adversary
	// subsystem entirely, making the engine's attack hook a guaranteed
	// no-op.
	Model adversary.Attack
	// Attackers is the number of trustees converted into attackers,
	// clamped to the trustee count; 0 disables the subsystem.
	Attackers int
}

// Enabled reports whether the scenario actually injects attackers.
func (c AttackConfig) Enabled() bool { return c.Model != nil && c.Attackers > 0 }

// installAttackers converts a deterministic subset of the trustees into
// attackers. It draws from a dedicated stream so populations built without
// an attack are bit-identical to those built before the adversary subsystem
// existed.
func (p *Population) installAttackers() {
	cfg := p.cfg.Attack
	n := cfg.Attackers
	if n > len(p.Trustees) {
		n = len(p.Trustees)
	}
	r := rng.New(p.cfg.Seed, "adversary", p.Net.Profile.Name)
	perm := r.Perm(len(p.Trustees))
	for _, i := range perm[:n] {
		id := p.Trustees[i]
		p.Agents[id].Kind = agent.KindDishonestTrustee
		p.Attackers = append(p.Attackers, id)
		p.attackers[id] = true
	}
	sortIDs(p.Attackers)
}

// AttackEnabled reports whether this population carries an attack scenario.
func (p *Population) AttackEnabled() bool { return p.cfg.Attack.Enabled() && len(p.Attackers) > 0 }

// Forget makes every peer drop its memory of id — experience records and
// usage logs — as if the agent had left the network and a stranger had
// joined in its place. The agent's own store (its knowledge of others) is
// untouched: a whitewashing attacker keeps what it learned.
func (p *Population) Forget(id core.AgentID) {
	for _, a := range p.Agents {
		if a.ID != id {
			a.Store.Forget(id)
		}
	}
}

// attackContext builds the hook context of mutuality round `round` for
// the population's attack model, ok=false when the population carries no
// attack scenario. The label folds in the engine phase (but deliberately
// NOT the model name) so adversary streams never collide with engine or
// population streams while equivalent models stay bit-identical: a
// Collusion ring of size 1 draws exactly what its underlying solo attack
// would, and OnOff with Duty=1 draws exactly what the Honest null model
// would (nothing).
func (e *Engine) attackContext(round int) (adversary.Context, bool) {
	p := e.Pop
	if !p.AttackEnabled() {
		return adversary.Context{}, false
	}
	return adversary.Context{
		Seed:  p.cfg.Seed,
		Label: "attack:" + e.mutualityLabel(),
		Round: round,
		Ring:  p.Attackers,
	}, true
}

// edgeTW is an own-experience lens over a probe or round epoch: the
// trustworthiness the source agent of directed edge e holds about the
// edge's target on the task at hand, ok=false when it holds nothing. The
// rounds and PerceivedTrust look through RoundView.BestTW,
// PerceivedTrustModels through each model's EdgeMemo.RequireLens.
type edgeTW func(e int32) (float64, bool)

// recommendedTW gathers one-hop recommendations about candidate y from the
// trustor x's social neighbors in the view — including y itself (the
// self-claim channel of service discovery). Each recommender reports its
// z→y edge through the lens tw, except that attackers may forge their
// report through the attack model's recommendation hook. A recommender
// without a social edge to y holds no records about it (experience lives
// only along edges), so an EdgeIndex miss contributes nothing, exactly like
// an empty live store. Returns the mean report, or ok=false when nobody has
// anything to say. Reads only the view: safe inside the engine's lock-free
// compute phase.
func (e *Engine) recommendedTW(view *core.RoundView, tw edgeTW, ctx adversary.Context, x, y core.AgentID) (float64, bool) {
	p := e.Pop
	model := p.cfg.Attack.Model
	var sum float64
	n := 0
	for _, z := range view.Neighbors(x) {
		if p.attackers[z] {
			if v, forged := model.ForgeRecommendation(ctx, z, y); forged {
				sum += v
				n++
				continue
			}
		}
		if edge, ok := view.EdgeIndex(z, y); ok {
			if v, ok := tw(edge); ok {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// applyAttack is the engine's pre-merge hook: between the parallel compute
// phase and the single-threaded merge, attackers rewrite the outcomes of
// the delegations they served this round (service sabotage). Each rewrite
// draws from the attacker's private (round, agent) sub-stream, so the pass
// is independent of iteration order and of how many trustors hit the same
// attacker.
func (e *Engine) applyAttack(ctx adversary.Context, acts []mutualityAction) {
	p := e.Pop
	model := p.cfg.Attack.Model
	for i := range acts {
		a := &acts[i]
		if !a.accepted || !p.attackers[a.trustee] {
			continue
		}
		if model.Active(ctx, a.trustee) {
			a.out = model.SabotageOutcome(ctx, a.trustee, a.out)
		}
	}
}

// applyChurn runs the post-merge identity-churn hook: attackers that shed
// their identity this round are forgotten by every peer, in ascending
// attacker order.
func (e *Engine) applyChurn(ctx adversary.Context) {
	p := e.Pop
	model := p.cfg.Attack.Model
	for _, a := range p.Attackers {
		if model.Churn(ctx, a) {
			p.Forget(a)
		}
	}
}

// PerceivedTrust measures how the trustors currently see their candidate
// trustees on task tk — through the same lens the delegation rounds use:
// own experience first (RoundView.BestTW), one-hop recommendations
// (attackers forging theirs) for strangers, the neutral prior when nobody
// knows anything. It returns the averages over honest trustee candidates
// and attacker candidates; the difference is the trust gap the resilience
// metrics track. Read-only: it takes the population's current epoch
// (capturing only the rows written since the last capture), reads the
// snapshot, and lets go of it; the live stores are untouched, so the
// snapshot is exact.
func (e *Engine) PerceivedTrust(round int, tk task.Task) (honest, attacker float64) {
	e.probe(func(view *core.RoundView) {
		got := e.perceive(view, round, func(edge int32) (float64, bool) { return view.BestTW(edge, tk) })
		honest, attacker = got.Honest, got.Attacker
	})
	return honest, attacker
}

// Perceived is one trust model's probe outcome: the mean perceived trust
// of honest trustee candidates and of attacker candidates (their
// difference is the model's trust gap).
type Perceived struct {
	Honest   float64
	Attacker float64
}

// PerceivedTrustModels is PerceivedTrust evaluated once per model in a
// single probe epoch: one snapshot, one shared EdgeMemo (trainable models
// fit on it exactly once), and every model scored over the same snapshot.
// Each model sees direct edges and one-hop recommendations through its own
// single-edge lens (EdgeMemo.RequireLens, which reads the hop tables the
// model's search reads) rather than the rounds' policy-agnostic
// RoundView.BestTW, so the cross-model resilience matrix compares how each
// model's own arithmetic perceives the attack. Attack forgeries are
// asserted numbers, identical under every model. Read-only, like
// PerceivedTrust.
func (e *Engine) PerceivedTrustModels(round int, tk task.Task, models []core.TrustModel) []Perceived {
	out := make([]Perceived, len(models))
	e.probe(func(view *core.RoundView) {
		memo := core.NewEdgeMemoPooled(view.TrustView, e.Pop.cfg.Update.Norm, e.workers(), epochArenas)
		for mi, m := range models {
			out[mi] = e.perceive(view, round, memo.RequireLens(m, tk))
		}
		memo.Release()
	})
	return out
}

// probe takes the population's current epoch, hands its view to fn, and
// lets go of it.
func (e *Engine) probe(fn func(view *core.RoundView)) {
	link := e.Pop.acquireEpoch(e.workers())
	fn(link.view)
	link.release()
}

// perceive scores every trustor's candidate trustees on the view the way
// mutuality round `round` would, own experience read through tw, and
// averages the scores over honest and attacker candidates.
func (e *Engine) perceive(view *core.RoundView, round int, tw edgeTW) Perceived {
	p := e.Pop
	ctx, attacked := e.attackContext(round)
	var honestSum, attackerSum float64
	honestN, attackerN := 0, 0
	for _, x := range p.Trustors {
		for _, c := range p.candidates(x) {
			v := e.candidateTW(view, tw, attacked, ctx, x, c.Edge, c.ID)
			if p.attackers[c.ID] {
				attackerSum += v
				attackerN++
			} else {
				honestSum += v
				honestN++
			}
		}
	}
	var out Perceived
	if honestN > 0 {
		out.Honest = honestSum / float64(honestN)
	}
	if attackerN > 0 {
		out.Attacker = attackerSum / float64(attackerN)
	}
	return out
}
