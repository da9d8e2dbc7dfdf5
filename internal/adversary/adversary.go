// Package adversary models the standard family of trust attacks the SIoT
// literature expects a resilient trust model to withstand: bad-mouthing,
// ballot-stuffing, self-promotion, on-off (oscillating) behavior,
// whitewashing (identity churn), and collusion rings that coordinate any of
// them.
//
// An Attack plugs into the simulation engine at three hook points:
//
//   - recommendation forging: when a trustor gathers one-hop
//     recommendations about a candidate trustee, an attacking recommender
//     may replace what its trust store would honestly serve;
//   - service sabotage: an attacking trustee may rewrite the outcome of a
//     delegation it serves, in the engine's pre-merge pass over the round's
//     buffered actions;
//   - identity churn: after a round merges, an attacker may shed its
//     identity, making every peer forget its records and usage logs.
//
// # Determinism contract
//
// Hooks are called from the engine's parallel compute phase, possibly many
// times per round for the same attacker, in an order that depends on
// goroutine scheduling. Implementations must therefore be pure: the result
// may depend only on the hook's arguments, and any randomness must come
// from Context.Rand, which derives a fresh, identical sub-stream — keyed by
// (seed, label, hook, round, attacker) via rng.Split2 discipline — on every
// call. Under that contract, engine runs stay bit-identical at every
// parallelism level.
package adversary

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"siot/internal/core"
	"siot/internal/rng"
)

// Context is the per-round view an attack hook receives from the engine.
type Context struct {
	// Seed is the population seed; Label separates this engine phase's
	// attack streams from every other random stream of the run.
	Seed  uint64
	Label string
	// Round is the current delegation round.
	Round int
	// Ring holds the coordinated attacker IDs in ascending order.
	Ring []core.AgentID
}

// Rand derives the attacker's private random stream for one hook of this
// round. Every call with the same arguments returns a generator producing
// the identical sequence, so hook results cannot depend on how many times
// or in which order the engine invokes them.
func (c Context) Rand(hook string, attacker core.AgentID) *rand.Rand {
	return rng.Split2(c.Seed, c.Label+":"+hook, c.Round, int(attacker))
}

// InRing reports whether id is one of the coordinated attackers.
func (c Context) InRing(id core.AgentID) bool {
	i := sort.Search(len(c.Ring), func(i int) bool { return c.Ring[i] >= id })
	return i < len(c.Ring) && c.Ring[i] == id
}

// Attack is one trust-attack model. The zero value of every concrete model
// in this package is usable and applies the listed defaults.
type Attack interface {
	// Name identifies the model in labels, tables, and CLI flags.
	Name() string
	// Active reports whether the attacker misbehaves as a trustee in this
	// round — the service-behavior-over-time hook (on-off attackers
	// oscillate it, pure-recommendation attackers never raise it).
	Active(ctx Context, attacker core.AgentID) bool
	// ForgeRecommendation lets the attacker replace the recommendation its
	// trust store would serve about subject. It returns the forged
	// trustworthiness and whether a forgery happened at all; (_, false)
	// serves the honest store content.
	ForgeRecommendation(ctx Context, attacker, subject core.AgentID) (tw float64, forged bool)
	// SabotageOutcome rewrites the outcome of a delegation the attacker
	// served. The engine calls it only in rounds where Active is true.
	SabotageOutcome(ctx Context, attacker core.AgentID, out core.Outcome) core.Outcome
	// Churn reports whether the attacker sheds its identity after this
	// round, making every peer forget it (whitewashing).
	Churn(ctx Context, attacker core.AgentID) bool
}

// passive is embedded by models that leave some hooks honest.
type passive struct{}

func (passive) Active(Context, core.AgentID) bool { return false }
func (passive) ForgeRecommendation(Context, core.AgentID, core.AgentID) (float64, bool) {
	return 0, false
}
func (passive) SabotageOutcome(_ Context, _ core.AgentID, out core.Outcome) core.Outcome { return out }
func (passive) Churn(Context, core.AgentID) bool                                         { return false }

// sabotage turns any outcome into a deliberate failure: the task is not
// accomplished and the trustor suffers damage drawn from the attacker's
// private stream (matching the shape of honest failures so the attack is
// not trivially fingerprintable from the damage distribution).
func sabotage(ctx Context, attacker core.AgentID, out core.Outcome) core.Outcome {
	r := ctx.Rand("sabotage", attacker)
	out.Success = false
	out.Gain = 0
	out.Damage = 0.5 + float64(0.5*r.Float64())
	return out
}

// Honest is the null attack: a ring that runs the full scenario machinery
// (one-hop recommendations included) but never forges, sabotages, or
// churns. Attack experiments use it as the like-for-like baseline — the
// difference between a run under Honest and a run under a real model is
// exactly the attack's effect.
type Honest struct{ passive }

// Name implements Attack.
func (Honest) Name() string { return "honest" }

// BadMouthing forges minimal-trust recommendations about every subject
// outside the attacker's ring, steering trustors away from honest trustees.
// Service stays honest — the attack lives entirely in the recommendation
// channel.
type BadMouthing struct {
	passive
	// TW is the forged trustworthiness (default 0.05).
	TW float64
}

// Name implements Attack.
func (BadMouthing) Name() string { return "bad-mouthing" }

// ForgeRecommendation implements Attack.
func (a BadMouthing) ForgeRecommendation(ctx Context, _, subject core.AgentID) (float64, bool) {
	if ctx.InRing(subject) {
		return 0, false
	}
	return defaultTW(a.TW, 0.05), true
}

// BallotStuffing forges maximal-trust recommendations about every ring
// member, the attacker itself included — stuffing the ballot for accomplices
// regardless of how they actually perform.
type BallotStuffing struct {
	passive
	// TW is the forged trustworthiness (default 0.95).
	TW float64
}

// Name implements Attack.
func (BallotStuffing) Name() string { return "ballot-stuffing" }

// ForgeRecommendation implements Attack.
func (a BallotStuffing) ForgeRecommendation(ctx Context, _, subject core.AgentID) (float64, bool) {
	if !ctx.InRing(subject) {
		return 0, false
	}
	return defaultTW(a.TW, 0.95), true
}

// SelfPromotion forges maximal-trust claims about the attacker itself only —
// the narrow, uncoordinated special case of ballot-stuffing an agent can run
// alone through the self-claim channel of service discovery.
type SelfPromotion struct {
	passive
	// TW is the forged self-claim (default 0.95).
	TW float64
}

// Name implements Attack.
func (SelfPromotion) Name() string { return "self-promotion" }

// ForgeRecommendation implements Attack.
func (a SelfPromotion) ForgeRecommendation(_ Context, attacker, subject core.AgentID) (float64, bool) {
	if subject != attacker {
		return 0, false
	}
	return defaultTW(a.TW, 0.95), true
}

// OnOff alternates honest and malicious service phases: the attacker builds
// trust while "on its best behavior", then spends it sabotaging delegations,
// oscillating faster than slow-forgetting trust updates can track.
type OnOff struct {
	passive
	// Period is the full cycle length in rounds (default 20).
	Period int
	// Duty is the fraction of each cycle served honestly, in [0, 1]. The
	// cycle starts with the honest phase; Duty=1 never attacks (and is
	// bit-identical to a ring running the Honest null model), Duty=0
	// always attacks.
	Duty float64
}

// Name implements Attack.
func (OnOff) Name() string { return "on-off" }

func (a OnOff) period() int {
	if a.Period <= 0 {
		return 20
	}
	return a.Period
}

// Active implements Attack: the honest phase occupies the first
// round(Duty·Period) rounds of every cycle.
func (a OnOff) Active(ctx Context, _ core.AgentID) bool {
	p := a.period()
	honest := int(math.Round(a.Duty * float64(p)))
	if honest >= p {
		return false
	}
	return ctx.Round%p >= honest
}

// SabotageOutcome implements Attack.
func (a OnOff) SabotageOutcome(ctx Context, attacker core.AgentID, out core.Outcome) core.Outcome {
	return sabotage(ctx, attacker, out)
}

// Whitewashing sabotages every delegation it serves and periodically
// re-registers under a fresh identity, wiping the bad reputation it earned:
// every peer forgets its experience records and usage logs about the
// attacker, resetting it to the newcomer prior.
type Whitewashing struct {
	passive
	// RejoinEvery is the identity lifetime in rounds (default 25): the
	// attacker churns after rounds RejoinEvery−1, 2·RejoinEvery−1, ….
	RejoinEvery int
}

// Name implements Attack.
func (Whitewashing) Name() string { return "whitewashing" }

func (a Whitewashing) rejoinEvery() int {
	if a.RejoinEvery <= 0 {
		return 25
	}
	return a.RejoinEvery
}

// Active implements Attack.
func (Whitewashing) Active(Context, core.AgentID) bool { return true }

// SabotageOutcome implements Attack.
func (a Whitewashing) SabotageOutcome(ctx Context, attacker core.AgentID, out core.Outcome) core.Outcome {
	return sabotage(ctx, attacker, out)
}

// Churn implements Attack.
func (a Whitewashing) Churn(ctx Context, _ core.AgentID) bool {
	return (ctx.Round+1)%a.rejoinEvery() == 0
}

// Collusion coordinates a ring of attackers running the same underlying
// attack: on top of the wrapped model's behavior, every member forges
// maximal-trust recommendations about the other members (mutual promotion).
// A ring of size 1 has nobody to promote and degenerates exactly to the
// underlying solo attack.
type Collusion struct {
	// Of is the attack every ring member runs (required).
	Of Attack
	// TW is the forged mutual-promotion trustworthiness (default 0.95).
	TW float64
}

// Name implements Attack.
func (a Collusion) Name() string { return "collusion(" + a.Of.Name() + ")" }

// Active implements Attack.
func (a Collusion) Active(ctx Context, attacker core.AgentID) bool {
	return a.Of.Active(ctx, attacker)
}

// ForgeRecommendation implements Attack: promote fellow ring members,
// otherwise defer to the underlying attack.
func (a Collusion) ForgeRecommendation(ctx Context, attacker, subject core.AgentID) (float64, bool) {
	if subject != attacker && ctx.InRing(subject) {
		return defaultTW(a.TW, 0.95), true
	}
	return a.Of.ForgeRecommendation(ctx, attacker, subject)
}

// SabotageOutcome implements Attack.
func (a Collusion) SabotageOutcome(ctx Context, attacker core.AgentID, out core.Outcome) core.Outcome {
	return a.Of.SabotageOutcome(ctx, attacker, out)
}

// Churn implements Attack.
func (a Collusion) Churn(ctx Context, attacker core.AgentID) bool {
	return a.Of.Churn(ctx, attacker)
}

// Names lists the attack-model names Parse accepts, in canonical form.
func Names() []string {
	return []string{"badmouth", "ballot", "selfpromo", "onoff", "whitewash"}
}

// Parse maps a CLI-friendly model name to a default-parameter Attack.
// Recognized (with aliases): "badmouth"/"bad-mouthing", "ballot"/
// "ballot-stuffing", "selfpromo"/"self-promotion", "onoff"/"on-off",
// "whitewash"/"whitewashing". "" and "none" return nil (no attack).
func Parse(name string) (Attack, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return nil, nil
	case "badmouth", "bad-mouthing", "badmouthing":
		return BadMouthing{}, nil
	case "ballot", "ballot-stuffing", "ballotstuffing":
		return BallotStuffing{}, nil
	case "selfpromo", "self-promotion", "selfpromotion":
		return SelfPromotion{}, nil
	case "onoff", "on-off":
		return OnOff{Period: 20, Duty: 0.5}, nil
	case "whitewash", "whitewashing":
		return Whitewashing{}, nil
	}
	return nil, fmt.Errorf("adversary: unknown attack model %q (known: %s)", name, strings.Join(Names(), ", "))
}

// defaultTW substitutes def for an unset forged trustworthiness and clamps
// into [0, 1].
func defaultTW(v, def float64) float64 {
	if v <= 0 {
		v = def
	}
	if v > 1 {
		v = 1
	}
	return v
}
