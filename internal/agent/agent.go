// Package agent models the behavior of social IoT objects: their true
// per-characteristic competence, their conduct as trustors (responsible or
// abusive resource use), and the malicious trustee behaviors the paper's
// experiments inject — characteristic-specific poor performance (Fig. 8),
// fragment-packet stalling that inflates interaction cost (Fig. 14), and
// late-joining opportunists that hide behind environment changes (Fig. 16).
package agent

import (
	"fmt"
	"math/rand/v2"

	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/task"
)

// Kind is an agent's role in an experiment.
type Kind int

const (
	// KindBystander participates in the social network but neither requests
	// nor serves tasks.
	KindBystander Kind = iota
	// KindTrustor generates task delegation requests.
	KindTrustor
	// KindTrustee serves delegation requests honestly.
	KindTrustee
	// KindDishonestTrustee serves requests while carrying some Malice.
	KindDishonestTrustee
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBystander:
		return "bystander"
	case KindTrustor:
		return "trustor"
	case KindTrustee:
		return "trustee"
	case KindDishonestTrustee:
		return "dishonest-trustee"
	default:
		return "unknown"
	}
}

// Malice enumerates the dishonest-trustee behaviors used by the paper's
// experiments.
type Malice int

const (
	// maliceNone is honest behavior.
	maliceNone Malice = iota
	// MaliceCharacteristic performs poorly on specific characteristics
	// while looking normal on others (§5.4: "dishonest trustees have
	// performed maliciously with a particular characteristic").
	MaliceCharacteristic
	// MaliceFragmentStall completes tasks but pads the interaction with
	// fragment packets, inflating the trustor's active time and energy
	// cost (§5.6's experiment behind Fig. 14).
	MaliceFragmentStall
	// MaliceOpportunist serves only when conditions favor it and misbehaves
	// from time to time — the Fig. 16 adversary that outperforms honest
	// nodes struggling in the dark unless the environment is corrected.
	MaliceOpportunist
)

// String names the malice.
func (m Malice) String() string {
	switch m {
	case maliceNone:
		return "none"
	case MaliceCharacteristic:
		return "characteristic"
	case MaliceFragmentStall:
		return "fragment-stall"
	case MaliceOpportunist:
		return "opportunist"
	default:
		return "unknown"
	}
}

// Behavior is the ground truth about an agent that the trust model tries to
// discover through delegations.
type Behavior struct {
	// BaseCompetence is the agent's competence-and-willingness on any
	// characteristic not listed in Competence, in [0, 1]. The paper assigns
	// this as "a random number in [0, 1] ... to indicate its actual
	// competence and willingness to accomplish the task".
	BaseCompetence float64
	// Competence overrides per characteristic.
	Competence map[task.Characteristic]float64
	// Responsibility is the trustor-side probability of using a trustee's
	// resources responsibly (1 − abuse probability), the hidden variable of
	// the Fig. 7 experiment.
	Responsibility float64
	// Malice is the trustee-side misbehavior, if any.
	Malice Malice
	// MaliceChars marks the characteristics affected by
	// MaliceCharacteristic.
	MaliceChars map[task.Characteristic]bool
	// StallCost is the extra normalized cost MaliceFragmentStall inflicts
	// per interaction.
	StallCost float64
}

// CharCompetence returns the agent's true competence on one characteristic,
// including characteristic-targeted malice.
func (b Behavior) CharCompetence(c task.Characteristic) float64 {
	v := b.BaseCompetence
	if o, ok := b.Competence[c]; ok {
		v = o
	}
	if b.Malice == MaliceCharacteristic && b.MaliceChars[c] {
		// Malicious on this characteristic: competence collapses.
		v *= 0.15
	}
	return clamp01(v)
}

// TaskCompetence returns the competence on a whole task: the task-weighted
// mean of the per-characteristic competences. ("If this task has two
// characteristics, this random number reveals the node's capability of
// handling each characteristic.")
func (b Behavior) TaskCompetence(t task.Task) float64 {
	var v float64
	for _, c := range t.Characteristics() {
		v += float64(t.Weight(c) * b.CharCompetence(c))
	}
	return clamp01(v)
}

// UsesAbusively samples whether the agent, acting as trustor, abuses the
// granted resources this time.
func (b Behavior) UsesAbusively(r *rand.Rand) bool {
	return r.Float64() >= b.Responsibility
}

// Agent is one social IoT object: identity, role, ground-truth behavior,
// trust store (its state as trustor and its usage logs as trustee), and the
// reverse-evaluation threshold θ_y(τ) it applies to requesters.
type Agent struct {
	ID       core.AgentID
	Kind     Kind
	Behavior Behavior
	Store    *core.Store
	// Theta is the reverse-evaluation threshold θ_y(τ). The paper's Fig. 7
	// sweeps it over {0, 0.3, 0.6}; 0 disables the reverse evaluation.
	Theta float64
}

// New creates an agent with an empty trust store.
func New(id core.AgentID, kind Kind, b Behavior, cfg core.UpdateConfig) *Agent {
	return &Agent{ID: id, Kind: kind, Behavior: b, Store: core.NewStore(id, cfg)}
}

// String implements fmt.Stringer.
func (a *Agent) String() string {
	return fmt.Sprintf("agent#%d(%s)", a.ID, a.Kind)
}

// The outcome model of Act: baseCost is the normalized cost of a clean
// interaction, and gainSpread adds uniform noise to the gain on success.
const (
	baseCost   float64 = 0.15
	gainSpread float64 = 0.2
)

// Act simulates the agent executing task t as trustee in environment e.
// Success probability is the task competence scaled by the environment
// (hostile conditions make every task harder, §4.5). On success the trustor
// gains proportionally to competence; on failure it suffers damage.
// Fragment-stall malice inflates cost; opportunists fail sporadically on
// purpose. Act mutates nothing, so the parallel simulation engine calls it
// from worker goroutines.
func (a *Agent) Act(t task.Task, e env.Environment, r *rand.Rand) core.Outcome {
	comp := a.Behavior.TaskCompetence(t)
	pSuccess := comp * float64(e.Clamp())
	if a.Behavior.Malice == MaliceOpportunist && r.Float64() < 0.25 {
		// Deliberate sporadic misbehavior.
		pSuccess *= 0.2
	}
	out := core.Outcome{Cost: baseCost}
	if a.Behavior.Malice == MaliceFragmentStall {
		out.Cost = clamp01(baseCost + a.Behavior.StallCost)
	}
	if r.Float64() < pSuccess {
		out.Success = true
		out.Gain = clamp01(comp * (1 - gainSpread/2 + float64(gainSpread*r.Float64())))
	} else {
		out.Damage = clamp01((1 - comp) * (0.5 + float64(0.5*r.Float64())))
	}
	return out
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
