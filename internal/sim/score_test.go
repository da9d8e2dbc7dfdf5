package sim

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/task"
)

// oracleCandidateTW is the single-lens reference of scoreCandidate: direct
// experience first (edge is the x→y edge in the view, read through the
// lens tw), the one-hop recommendation channel (attack scenarios only,
// with attackers forging) for strangers, the neutral prior when nobody
// knows anything.
func oracleCandidateTW(e *Engine, view *core.RoundView, tw edgeTW, attacked bool, ctx adversary.Context, x core.AgentID, edge int32, y core.AgentID) float64 {
	if v, ok := tw(edge); ok {
		return v
	}
	if attacked {
		if rec, ok := oracleRecommendedTW(e, view, tw, ctx, x, y); ok {
			return rec
		}
	}
	return 0.5
}

// oracleRecommendedTW gathers one-hop recommendations about candidate y
// from x's social neighbors in the view, y itself included, one lens at a
// time: each recommender reports its z→y edge through tw unless it is an
// attacker that forges its report. Returns the mean report, or ok=false
// when nobody has anything to say.
func oracleRecommendedTW(e *Engine, view *core.RoundView, tw edgeTW, ctx adversary.Context, x, y core.AgentID) (float64, bool) {
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

// oraclePerceive is the serial reference of perceive for one lens: every
// trustor's candidates scored by the oracle in ascending trustor and row
// order, averaged over honest and attacker candidates.
func oraclePerceive(e *Engine, view *core.RoundView, round int, tw edgeTW) Perceived {
	p := e.Pop
	ctx, attacked := e.attackContext(round)
	var honestSum, attackerSum float64
	honestN, attackerN := 0, 0
	for _, x := range p.Trustors {
		for _, c := range p.candidates(x) {
			v := oracleCandidateTW(e, view, tw, attacked, ctx, x, c.Edge, c.ID)
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

// scoreScenarios are the attacked populations of the scorer tests:
// defamation, a coordinated ring, and whitewashing played past a churn so
// the probed stores have forgotten the attackers.
func scoreScenarios() []struct {
	atk    AttackConfig
	rounds int
} {
	return []struct {
		atk    AttackConfig
		rounds int
	}{
		{AttackConfig{Model: adversary.BadMouthing{}, Attackers: 20}, 6},
		{AttackConfig{Model: adversary.Collusion{Of: adversary.BadMouthing{}}, Attackers: 20}, 6},
		{AttackConfig{Model: adversary.Whitewashing{RejoinEvery: 4}, Attackers: 20}, 6}, // churn after round 3
	}
}

func sameBits(a, b Perceived) bool {
	return math.Float64bits(a.Honest) == math.Float64bits(b.Honest) &&
		math.Float64bits(a.Attacker) == math.Float64bits(b.Attacker)
}

// TestPerceivedTrustMatchesOracle pins the joint scorer against the
// single-lens reference: on attacked populations, every trustor's every
// candidate scored under BestTW, every registered model's lens and two
// partial lenses in one call equals the reference lens by lens, bit for
// bit. The probes built on it must equal the serial reference at workers
// 1, 2 and 8, and one probe of all models must equal one probe per model.
func TestPerceivedTrustMatchesOracle(t *testing.T) {
	tk := task.Uniform(1, task.CharCompute)
	models := registeredModels(t)
	for _, sc := range scoreScenarios() {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", sc.atk.Model.Name(), workers), func(t *testing.T) {
				p := attackPopulation(t, 13, sc.atk, workers)
				eng := NewEngine(p, "score-test")
				var c MutualityCounters
				for round := 0; round < sc.rounds; round++ {
					eng.MutualityRound(round, tk, &c)
				}
				round := sc.rounds - 1
				ctx, attacked := eng.attackContext(round)
				if !attacked {
					t.Fatal("scenario installed no attackers")
				}

				link := p.acquireEpoch(workers)
				defer link.release()
				view := link.view
				memo := core.NewEdgeMemoPooled(view.TrustView, p.cfg.Update.Norm, workers, nil)
				defer memo.Release()
				lenses := []edgeTW{func(e int32) (float64, bool) { return view.BestTW(e, tk) }}
				for _, m := range models {
					lenses = append(lenses, memo.RequireLens(m, tk))
				}
				// Two synthetic lenses make some lenses miss where others
				// hit, both on the x→y edge and inside the walk: one holds
				// nothing, one sees only odd edges.
				best := lenses[0]
				lenses = append(lenses,
					func(int32) (float64, bool) { return 0, false },
					func(e int32) (float64, bool) {
						if e%2 == 0 {
							return 0, false
						}
						return best(e)
					})

				out, n := make([]float64, len(lenses)), make([]int, len(lenses))
				recommended, mixed := 0, 0
				for _, x := range p.Trustors {
					for _, cand := range p.candidates(x) {
						eng.scoreCandidate(view, lenses, attacked, ctx, x, cand, out, n)
						hits := 0
						for l, tw := range lenses {
							want := oracleCandidateTW(eng, view, tw, attacked, ctx, x, cand.Edge, cand.ID)
							if math.Float64bits(out[l]) != math.Float64bits(want) {
								t.Fatalf("trustor %d, candidate %d, lens %d: joint score %v, reference %v", x, cand.ID, l, out[l], want)
							}
							if _, ok := tw(cand.Edge); ok {
								hits++
							} else if _, ok := oracleRecommendedTW(eng, view, tw, ctx, x, cand.ID); ok {
								recommended++
							}
						}
						if hits > 0 && hits < len(lenses) {
							mixed++
						}
					}
				}
				if recommended == 0 || mixed == 0 {
					t.Fatalf("fixture too weak: %d recommended scores, %d candidates where only some lenses hit", recommended, mixed)
				}

				want := make([]Perceived, len(lenses))
				for l, tw := range lenses {
					want[l] = oraclePerceive(eng, view, round, tw)
				}
				if got := eng.perceive(view, round, lenses); len(got) != len(want) {
					t.Fatalf("perceive returned %d results for %d lenses", len(got), len(lenses))
				} else {
					for l := range want {
						if !sameBits(got[l], want[l]) {
							t.Fatalf("lens %d: perceive %+v, reference %+v", l, got[l], want[l])
						}
					}
				}
				if h, a := eng.PerceivedTrust(round, tk); !sameBits(Perceived{h, a}, want[0]) {
					t.Fatalf("PerceivedTrust (%v, %v), reference %+v", h, a, want[0])
				}
				all := eng.PerceivedTrustModels(round, tk, models)
				for mi, m := range models {
					if !sameBits(all[mi], want[mi+1]) {
						t.Fatalf("model %s: PerceivedTrustModels %+v, reference %+v", m.Name(), all[mi], want[mi+1])
					}
					if one := eng.PerceivedTrustModels(round, tk, []core.TrustModel{m})[0]; !sameBits(one, all[mi]) {
						t.Fatalf("model %s: probed alone %+v, probed with every model %+v", m.Name(), one, all[mi])
					}
				}
			})
		}
	}
}

// TestPerceivedTrustIsReadOnly plays the same attacked rounds twice, once
// with both probes after every round and once without, and requires
// identical counters and byte-identical stores for every agent: a probe
// changes nothing a later round reads, so a run may leave its probes out.
func TestPerceivedTrustIsReadOnly(t *testing.T) {
	tk := task.Uniform(1, task.CharCompute)
	models := registeredModels(t)
	for _, sc := range scoreScenarios() {
		t.Run(sc.atk.Model.Name(), func(t *testing.T) {
			play := func(probe bool) (MutualityCounters, []byte) {
				p := attackPopulation(t, 17, sc.atk, 2)
				eng := NewEngine(p, "probe-test")
				var c MutualityCounters
				for round := 0; round < sc.rounds; round++ {
					eng.MutualityRound(round, tk, &c)
					if probe {
						eng.PerceivedTrust(round, tk)
						eng.PerceivedTrustModels(round, tk, models)
					}
				}
				return c, storeSnapshot(t, p)
			}
			c0, s0 := play(false)
			c1, s1 := play(true)
			if c0 != c1 {
				t.Fatalf("counters differ:\nunprobed: %+v\nprobed:   %+v", c0, c1)
			}
			if c0.AttackerDelegations == 0 {
				t.Fatal("no delegation landed on an attacker; test proves nothing")
			}
			if !bytes.Equal(s0, s1) {
				t.Fatal("stores differ between the probed and the unprobed run")
			}
		})
	}
}
