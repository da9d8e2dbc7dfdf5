package sim

import (
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/task"
)

// TestReleasedTransitivityEpochPanics pins the released-epoch contract:
// once Release has handed the view back to the arena pool, RunModel, Reset
// and a second Release panic instead of reading or freeing arenas a newer
// capture may already use.
func TestReleasedTransitivityEpochPanics(t *testing.T) {
	p, setup := viewTestPopulation(t, 12, 3)
	eng := NewEngine(p, "released-epoch")
	m := core.Traditional
	for name, use := range map[string]func(ep *TransitivityEpoch){
		"RunModel": func(ep *TransitivityEpoch) { ep.RunModel(m, 1) },
		"Reset":    func(ep *TransitivityEpoch) { ep.Reset() },
		"Release":  func(ep *TransitivityEpoch) { ep.Release() },
	} {
		t.Run(name, func(t *testing.T) {
			ep := eng.TransitivityEpoch(setup)
			ep.RunModel(m, 1)
			ep.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a released TransitivityEpoch did not panic", name)
				}
			}()
			use(ep)
		})
	}
}

// TestPopulationsOwnTheirArenas pins that each population draws its epochs
// from its own arena pool: while population A stays alive, an arena A
// released never backs an epoch of population B, even one of the same
// shape that a shared pool would hand it.
func TestPopulationsOwnTheirArenas(t *testing.T) {
	a, _ := viewTestPopulation(t, 21, 3)
	b, setup := viewTestPopulation(t, 21, 3)
	v := a.RoundView(1, a.arenas)
	e := firstNonEmptyEdge(t, v.TrustView)
	released := &v.EdgeRecords(e)[0]
	v.Release()

	ep := NewEngine(b, "own-arenas").TransitivityEpoch(setup)
	defer ep.Release()
	if &ep.link.view.EdgeRecords(e)[0] == released {
		t.Fatal("population B's epoch reuses a record arena population A released")
	}
	// The same arena stays A's: A's next capture of the same shape takes it.
	w := a.RoundView(1, a.arenas)
	defer w.Release()
	if &w.EdgeRecords(e)[0] != released {
		t.Fatal("population A's pool did not keep the arena A released")
	}
}

// TestChurnKeepsViewAlive pins the live-read window of identity churn
// closed: a reader holds a view captured from the population's epoch pool,
// whitewashing churn then makes every peer Forget an attacker mid-flight
// (Population.Forget rewriting the stores while the round captures and
// releases its own views from the same pool), and the held view must keep
// serving the pre-churn records — no recycled arenas, no leak-through.
// After the reader releases, a fresh pooled capture must match the live
// post-churn stores exactly (the TestArenaPoolNoStaleRecords property at
// the round-view level).
func TestChurnKeepsViewAlive(t *testing.T) {
	p := attackPopulation(t, 11, AttackConfig{Model: adversary.Whitewashing{RejoinEvery: 3}, Attackers: 20}, 2)
	eng := NewEngine(p, "churn-epoch")
	tk := task.Uniform(1, task.CharCompute)
	var c MutualityCounters
	// Rounds 0–1 accumulate records about the attackers; churn first fires
	// after round 2, which has not run yet.
	for round := 0; round < 2; round++ {
		eng.MutualityRound(round, tk, &c)
	}
	// Find an edge holder→attacker that carries records.
	var holder, attacker core.AgentID
	found := false
	for _, a := range p.Attackers {
		for _, u := range p.Neighbors(a) {
			if p.Agent(u).Store.RecordCount(a) > 0 {
				holder, attacker, found = u, a, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no records about any attacker after two rounds")
	}
	// Hold a view drawn from the pool the engine's rounds capture from.
	view := p.RoundView(2, p.arenas)
	edge, ok := view.EdgeIndex(holder, attacker)
	if !ok {
		t.Fatal("holder→attacker edge missing from view")
	}
	nRecs := len(view.EdgeRecords(edge))
	if nRecs == 0 {
		t.Fatal("captured view lost the holder's records")
	}
	usage := view.Usage(edge)
	// Round 2 runs with our view outstanding: it captures and releases its
	// own view from the same pool, and its churn pass makes every peer
	// forget the whitewashing attackers.
	eng.MutualityRound(2, tk, &c)
	if got := p.Agent(holder).Store.RecordCount(attacker); got != 0 {
		t.Fatalf("churn did not fire: holder still has %d live records", got)
	}
	if got := len(view.EdgeRecords(edge)); got != nRecs {
		t.Fatalf("outstanding view changed under churn: %d records, had %d", got, nRecs)
	}
	if got := view.Usage(edge); got != usage {
		t.Fatalf("outstanding view usage changed under churn: %+v, had %+v", got, usage)
	}
	view.Release() // the arenas return to the pool only now
	// A fresh pooled capture (reusing those arenas) must match the live
	// post-churn stores — nothing stale left behind.
	fresh := p.RoundView(2, p.arenas)
	edge2, ok := fresh.EdgeIndex(holder, attacker)
	if !ok {
		t.Fatal("edge missing from fresh view")
	}
	if got := len(fresh.EdgeRecords(edge2)); got != 0 {
		t.Fatalf("fresh capture serves %d stale records about the forgotten attacker", got)
	}
	if got, want := fresh.Usage(edge2), p.Agent(holder).Store.Usage(attacker); got != want {
		t.Fatalf("fresh capture usage %+v, live store says %+v", got, want)
	}
	fresh.Release()
}

// TestMutualityComputePhaseLockFree is the mutex-contention guard of the
// snapshot-round refactor: with the view captured, the entire compute
// phase — candidate scoring, recommendation gathering with forgery,
// reverse evaluation, outcome draws — runs with every agent's store
// detached, so a read of any live store, lock-free ones included, panics.
// It holds for honest and attacked populations alike.
func TestMutualityComputePhaseLockFree(t *testing.T) {
	scenarios := map[string]AttackConfig{
		"honest":   {},
		"attacked": {Model: adversary.BadMouthing{}, Attackers: 15},
	}
	for name, atk := range scenarios {
		t.Run(name, func(t *testing.T) {
			p := attackPopulation(t, 21, atk, 4)
			eng := NewEngine(p, "lockfree")
			tk := task.Uniform(1, task.CharCompute)
			var c MutualityCounters
			eng.MutualityRound(0, tk, &c) // init + some store state
			actx, attacked := eng.attackContext(1)
			view := p.RoundView(4, nil)
			defer view.Release()
			stores := make([]*core.Store, len(p.Agents))
			for i, a := range p.Agents {
				stores[i], a.Store = a.Store, nil
			}
			acts := eng.computeMutualityActs(view, attacked, actx, 1, tk)
			for i, a := range p.Agents {
				a.Store = stores[i]
			}
			if len(acts) != len(p.Trustors) {
				t.Fatalf("compute phase returned %d actions for %d trustors", len(acts), len(p.Trustors))
			}
		})
	}
}
