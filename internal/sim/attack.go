package sim

import (
	"slices"

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
	slices.Sort(p.Attackers)
}

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
// attack scenario (no attackers were installed). The label folds in the engine phase (but deliberately
// NOT the model name) so adversary streams never collide with engine or
// population streams while equivalent models stay bit-identical: a
// Collusion ring of size 1 draws exactly what its underlying solo attack
// would, and OnOff with Duty=1 draws exactly what the Honest null model
// would (nothing).
func (e *Engine) attackContext(round int) (adversary.Context, bool) {
	p := e.Pop
	if len(p.Attackers) == 0 {
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

// scoreCandidate scores row entry c of trustor x under every lens at once,
// the way a mutuality round does, and writes lens l's score to out[l]:
// direct experience first (the x→y edge read through the lens); for
// strangers, in attack scenarios only, the mean one-hop recommendation
// about y from x's social neighbors z in the view — y itself included (the
// self-claim channel of service discovery); the neutral prior when nobody
// knows anything. Each recommender reports its z→y edge through the lens,
// except that attackers may forge their report through the attack model's
// recommendation hook. A recommender without a social edge to y holds no
// records about it (experience lives only along edges), so an EdgeIndex
// miss contributes nothing, exactly like an empty live store.
//
// The lenses that miss the x→y edge share one walk of N(x): each
// recommender's forgery and z→y edge are resolved once, and every such lens
// adds its own reports in N(x) order, so each lens's score has the bits a
// walk of its own would give. n is scratch of len(lenses). Reads only the
// view: safe inside the engine's lock-free compute phase.
func (e *Engine) scoreCandidate(view *core.RoundView, lenses []edgeTW, attacked bool, ctx adversary.Context, x core.AgentID, c trusteeEdge, out []float64, n []int) {
	miss := false
	for l, tw := range lenses {
		v, ok := tw(c.Edge)
		out[l], n[l] = v, -1 // direct experience: no recommendations
		if !ok {
			out[l], n[l], miss = 0, 0, true
		}
	}
	if miss && attacked {
		p := e.Pop
		model := p.cfg.Attack.Model
		for _, z := range view.Neighbors(x) {
			if p.attackers[z] {
				if v, forged := model.ForgeRecommendation(ctx, z, c.ID); forged {
					for l := range lenses {
						if n[l] >= 0 {
							out[l] += v
							n[l]++
						}
					}
					continue
				}
			}
			edge, ok := view.EdgeIndex(z, c.ID)
			if !ok {
				continue
			}
			for l, tw := range lenses {
				if n[l] < 0 {
					continue
				}
				if v, ok := tw(edge); ok {
					out[l] += v
					n[l]++
				}
			}
		}
	}
	for l := range lenses {
		switch {
		case n[l] > 0:
			out[l] /= float64(n[l])
		case n[l] == 0:
			out[l] = 0.5 // neutral prior before any experience
		}
	}
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
	link := e.Pop.acquireEpoch(e.workers())
	defer link.release()
	view := link.view
	got := e.perceive(view, round, []edgeTW{func(e int32) (float64, bool) { return view.BestTW(e, tk) }})[0]
	return got.Honest, got.Attacker
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
// fit on it exactly once), and every model scored over the same snapshot
// in one walk of the recommenders per (trustor, stranger candidate),
// whatever the model count. Each model sees direct edges and one-hop
// recommendations through its own single-edge lens
// (EdgeMemo.RequireLens, which reads the hop tables the model's search
// reads) rather than the rounds' policy-agnostic RoundView.BestTW, so the
// cross-model resilience matrix compares how each model's own arithmetic
// perceives the attack. Attack forgeries are asserted numbers, identical
// under every model. Read-only, like PerceivedTrust.
func (e *Engine) PerceivedTrustModels(round int, tk task.Task, models []core.TrustModel) []Perceived {
	link := e.Pop.acquireEpoch(e.workers())
	defer link.release()
	memo := core.NewEdgeMemoPooled(link.view.TrustView, e.Pop.cfg.Update.Norm, e.workers(), e.Pop.arenas)
	defer memo.Release()
	lenses := make([]edgeTW, len(models))
	for mi, m := range models {
		lenses[mi] = memo.RequireLens(m, tk)
	}
	return e.perceive(link.view, round, lenses)
}

// perceive scores every trustor's candidate trustees on the view through
// every lens the way mutuality round `round` would (scoreCandidate), and
// averages each lens's scores over honest and attacker candidates. The
// trustors fan out over the engine's workers; each lens's sums then fold
// serially in ascending trustor and row order, so the bits do not depend
// on the width.
func (e *Engine) perceive(view *core.RoundView, round int, lenses []edgeTW) []Perceived {
	p := e.Pop
	ctx, attacked := e.attackContext(round)
	nl := len(lenses)
	scores := mapTrustors(p.Trustors, e.workers(), func(x core.AgentID) []float64 {
		row := p.candidates(x)
		s, n := make([]float64, len(row)*nl), make([]int, nl)
		for i, c := range row {
			e.scoreCandidate(view, lenses, attacked, ctx, x, c, s[i*nl:(i+1)*nl], n)
		}
		return s
	})
	out := make([]Perceived, nl)
	for l := range out {
		var honestSum, attackerSum float64
		honestN, attackerN := 0, 0
		for i, x := range p.Trustors {
			for j, c := range p.candidates(x) {
				v := scores[i][j*nl+l]
				if p.attackers[c.ID] {
					attackerSum += v
					attackerN++
				} else {
					honestSum += v
					honestN++
				}
			}
		}
		if honestN > 0 {
			out[l].Honest = honestSum / float64(honestN)
		}
		if attackerN > 0 {
			out[l].Attacker = attackerSum / float64(attackerN)
		}
	}
	return out
}
