package sim

import (
	"fmt"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// attackModels enumerates every concrete adversary model (plus collusion
// wrappers) for the property tests.
func attackModels() []adversary.Attack {
	return []adversary.Attack{
		adversary.Honest{},
		adversary.BadMouthing{},
		adversary.BallotStuffing{},
		adversary.SelfPromotion{},
		adversary.OnOff{Period: 8, Duty: 0.5},
		adversary.Whitewashing{RejoinEvery: 7},
		adversary.Collusion{Of: adversary.BadMouthing{}},
		adversary.Collusion{Of: adversary.OnOff{Period: 8, Duty: 0.25}},
	}
}

// attackPopulation builds a small attacked population on the twitter
// profile (the smallest evaluation network).
func attackPopulation(t *testing.T, seed uint64, atk AttackConfig, parallelism int) *Population {
	t.Helper()
	net := socialgen.Generate(socialgen.Twitter(), seed)
	cfg := DefaultPopulationConfig(seed)
	cfg.Parallelism = parallelism
	cfg.Attack = atk
	return NewPopulation(net, cfg)
}

// runAttackRounds plays rounds and returns the counters.
func runAttackRounds(p *Population, rounds int) MutualityCounters {
	eng := NewEngine(p, "attack-test")
	tk := task.Uniform(1, task.CharCompute)
	var c MutualityCounters
	for round := 0; round < rounds; round++ {
		eng.MutualityRound(round, tk, &c)
	}
	return c
}

// fingerprint serializes every agent's full trust state, so two runs can be
// compared bit for bit.
func fingerprint(p *Population) string {
	out := ""
	for _, a := range p.Agents {
		for _, trustee := range a.Store.Trustees() {
			for _, r := range a.Store.Records(trustee) {
				out += fmt.Sprintf("%d>%d t%d %v %d;", a.ID, trustee, r.Task.Type(), r.Exp, r.Count)
			}
		}
	}
	for _, a := range p.Agents {
		for _, x := range p.Trustors {
			if l := a.Store.Usage(x); l != (core.UsageLog{}) {
				out += fmt.Sprintf("%d<%d %d/%d;", a.ID, x, l.Responsible, l.Abusive)
			}
		}
	}
	return out
}

// TestAttackExpectationsStayBounded is the core safety property: no attack
// model can push any agent's stored trust expectation outside [0, 1].
func TestAttackExpectationsStayBounded(t *testing.T) {
	for _, model := range attackModels() {
		t.Run(model.Name(), func(t *testing.T) {
			p := attackPopulation(t, 9, AttackConfig{Model: model, Attackers: 25}, 1)
			runAttackRounds(p, 30)
			for _, a := range p.Agents {
				for _, trustee := range a.Store.Trustees() {
					for _, r := range a.Store.Records(trustee) {
						for name, v := range map[string]float64{
							"S": r.Exp.S, "G": r.Exp.G, "D": r.Exp.D, "C": r.Exp.C,
						} {
							if v < 0 || v > 1 {
								t.Fatalf("agent %d record about %d: %s = %v outside [0,1]",
									a.ID, trustee, name, v)
							}
						}
						tw := r.TW(a.Store.Config().Norm)
						if tw < 0 || tw > 1 {
							t.Fatalf("agent %d record about %d: TW = %v outside [0,1]", a.ID, trustee, tw)
						}
					}
				}
			}
		})
	}
}

// TestOnOffFullDutyEqualsHonest pins the degeneration property end to end:
// an on-off attacker that never enters its malicious phase is bit-identical
// to the Honest null model — same counters, same trust state everywhere.
func TestOnOffFullDutyEqualsHonest(t *testing.T) {
	run := func(model adversary.Attack) (MutualityCounters, string) {
		p := attackPopulation(t, 5, AttackConfig{Model: model, Attackers: 20}, 1)
		c := runAttackRounds(p, 20)
		return c, fingerprint(p)
	}
	onC, onF := run(adversary.OnOff{Period: 10, Duty: 1})
	hoC, hoF := run(adversary.Honest{})
	if onC != hoC {
		t.Fatalf("counters differ:\nonoff duty=1: %+v\nhonest:       %+v", onC, hoC)
	}
	if onF != hoF {
		t.Fatal("trust state differs between OnOff{Duty:1} and Honest")
	}
}

// TestCollusionOfOneEqualsSolo pins the other degeneration property end to
// end: a collusion ring of size 1 runs bit-identically to the underlying
// solo attack.
func TestCollusionOfOneEqualsSolo(t *testing.T) {
	for _, solo := range []adversary.Attack{
		adversary.BadMouthing{},
		adversary.OnOff{Period: 6, Duty: 0.5},
		adversary.Whitewashing{RejoinEvery: 5},
	} {
		t.Run(solo.Name(), func(t *testing.T) {
			run := func(model adversary.Attack) (MutualityCounters, string) {
				p := attackPopulation(t, 5, AttackConfig{Model: model, Attackers: 1}, 1)
				c := runAttackRounds(p, 18)
				return c, fingerprint(p)
			}
			sC, sF := run(solo)
			wC, wF := run(adversary.Collusion{Of: solo})
			if sC != wC {
				t.Fatalf("counters differ:\nsolo:      %+v\ncollusion: %+v", sC, wC)
			}
			if sF != wF {
				t.Fatal("trust state differs between solo attack and collusion of size 1")
			}
		})
	}
}

// TestAttackParallelismInvariant extends the engine's determinism contract
// to attacked rounds: P=1 and P=8 must produce identical counters and trust
// state for every model.
func TestAttackParallelismInvariant(t *testing.T) {
	for _, model := range attackModels() {
		t.Run(model.Name(), func(t *testing.T) {
			run := func(parallelism int) (MutualityCounters, string) {
				p := attackPopulation(t, 11, AttackConfig{Model: model, Attackers: 20}, parallelism)
				c := runAttackRounds(p, 12)
				return c, fingerprint(p)
			}
			c1, f1 := run(1)
			c8, f8 := run(8)
			if c1 != c8 {
				t.Fatalf("counters differ between P=1 and P=8:\nP=1: %+v\nP=8: %+v", c1, c8)
			}
			if f1 != f8 {
				t.Fatal("trust state differs between P=1 and P=8")
			}
		})
	}
}

// TestWhitewashChurnWipesMemory checks the identity-churn hook end to end:
// right after a rejoin round, no peer holds records or usage logs about any
// attacker, while the attackers keep their own knowledge of others.
func TestWhitewashChurnWipesMemory(t *testing.T) {
	p := attackPopulation(t, 3, AttackConfig{Model: adversary.Whitewashing{RejoinEvery: 10}, Attackers: 15}, 1)
	eng := NewEngine(p, "attack-test")
	tk := task.Uniform(1, task.CharCompute)
	var c MutualityCounters
	for round := 0; round < 10; round++ { // churn fires after round 9
		eng.MutualityRound(round, tk, &c)
	}
	if c.AttackerDelegations == 0 {
		t.Fatal("no delegations landed on attackers; test proves nothing")
	}
	for _, a := range p.Agents {
		for _, atk := range p.Attackers {
			if a.ID == atk {
				continue
			}
			if len(a.Store.Records(atk)) != 0 {
				t.Fatalf("agent %d still has records about churned attacker %d", a.ID, atk)
			}
			if a.Store.Usage(atk) != (core.UsageLog{}) {
				t.Fatalf("agent %d still has usage logs about churned attacker %d", a.ID, atk)
			}
		}
	}
}

// TestAttackerInstallDeterministic pins attacker selection: same seed, same
// ring; and the ring is sorted, trustee-only, dishonest-kind.
func TestAttackerInstallDeterministic(t *testing.T) {
	atk := AttackConfig{Model: adversary.BadMouthing{}, Attackers: 12}
	a := attackPopulation(t, 21, atk, 1)
	b := attackPopulation(t, 21, atk, 8)
	if len(a.Attackers) != 12 || len(b.Attackers) != 12 {
		t.Fatalf("ring sizes %d/%d, want 12", len(a.Attackers), len(b.Attackers))
	}
	for i := range a.Attackers {
		if a.Attackers[i] != b.Attackers[i] {
			t.Fatalf("rings differ at %d: %v vs %v", i, a.Attackers, b.Attackers)
		}
		if i > 0 && a.Attackers[i] <= a.Attackers[i-1] {
			t.Fatalf("ring not sorted: %v", a.Attackers)
		}
		if !a.attackers[a.Attackers[i]] {
			t.Fatalf("attacker %d missing from the ring set", a.Attackers[i])
		}
	}
	// Population without an attack has no ring, and its rounds fire no
	// adversary hook.
	p := attackPopulation(t, 21, AttackConfig{}, 1)
	if len(p.Attackers) != 0 {
		t.Fatal("unattacked population reports attackers")
	}
	if _, attacked := NewEngine(p, "attack-test").attackContext(0); attacked {
		t.Fatal("unattacked population builds an attack context")
	}
}
