package sim

import (
	"fmt"
	"math"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// chainTestPopulation is viewTestPopulation with an attack scenario and a
// worker-pool width.
func chainTestPopulation(t *testing.T, seed uint64, atk AttackConfig, parallelism int) (*Population, TransitivitySetup) {
	t.Helper()
	profile := socialgen.Profile{
		Name: fmt.Sprintf("chaintest-%d", seed), Nodes: 200, Edges: 1400,
		Communities: 5, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 4, FeaturesPerNode: 2,
	}
	cfg := DefaultPopulationConfig(seed)
	cfg.Parallelism = parallelism
	cfg.Attack = atk
	p := NewPopulation(socialgen.Generate(profile, seed), cfg)
	setup := DefaultTransitivitySetup(4, p.Rand("chain-test"))
	setup.MaxDepth = 3
	SeedExperience(p, setup, seed)
	return p, setup
}

// registeredModels resolves every registered trust model.
func registeredModels(t *testing.T) []core.TrustModel {
	t.Helper()
	var models []core.TrustModel
	for _, name := range core.ModelNames() {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// assertSameRoundView is assertSameView plus the usage counters and the
// catalog snapshot: got must be byte-identical to want.
func assertSameRoundView(t *testing.T, label string, want, got *core.RoundView) {
	t.Helper()
	assertSameView(t, label, want.TrustView, got.TrustView)
	if len(got.Tasks()) != len(want.Tasks()) {
		t.Fatalf("%s: catalog snapshot of %d tasks, want %d", label, len(got.Tasks()), len(want.Tasks()))
	}
	for e := int32(0); e < int32(want.NumEdges()); e++ {
		if got.Usage(e) != want.Usage(e) {
			t.Fatalf("%s: edge %d usage %+v, want %+v", label, e, got.Usage(e), want.Usage(e))
		}
	}
}

// memoTasks lists the tasks whose hop tables RequireModel(m, tasks) builds:
// the tasks themselves, or for a PerCharacteristic model the unit task of
// every characteristic they use.
func memoTasks(m core.TrustModel, tasks []task.Task) []task.Task {
	if !m.Spec().PerCharacteristic {
		return tasks
	}
	var units []task.Task
	seen := map[task.Characteristic]bool{}
	for _, tk := range tasks {
		for _, c := range tk.Characteristics() {
			if !seen[c] {
				seen[c] = true
				units = append(units, task.Uniform(task.Type(-1-int(c)), c))
			}
		}
	}
	return units
}

// assertSameMemo requires every hop value got serves for m over the view's
// edges to carry the bits want serves (a blocked hop must be blocked in
// both). Both memos have already required tasks, so the lenses read the
// tables as they stand and build nothing.
func assertSameMemo(t *testing.T, label string, m core.TrustModel, tasks []task.Task, want, got *core.EdgeMemo, edges int) {
	t.Helper()
	for _, tk := range memoTasks(m, tasks) {
		wlens, glens := want.RequireLens(m, tk), got.RequireLens(m, tk)
		for e := int32(0); e < int32(edges); e++ {
			wv, wok := wlens(e)
			gv, gok := glens(e)
			if wok != gok || wok && math.Float64bits(wv) != math.Float64bits(gv) {
				t.Fatalf("%s/%s: task %v edge %d = (%v, %v), fresh memo has (%v, %v)", label, m.Name(), tk, e, gv, gok, wv, wok)
			}
		}
	}
}

// TestEpochChainMatchesFresh plays the simulation loop — round, probes,
// Reset, sweeps of every model — on honest and attacked populations at two
// worker counts and pins the epoch chain against from-scratch work: every
// view a round, a probe or a Reset reads is byte-identical to a full
// capture of the stores at that moment, and after each Reset the carried
// memo serves every model's hop values bit for bit like a freshly built
// memo. It also pins the sharing: a round right after a Reset and a probe
// right after a probe capture nothing.
func TestEpochChainMatchesFresh(t *testing.T) {
	scenarios := map[string]AttackConfig{
		"honest":   {},
		"attacked": {Model: adversary.Whitewashing{RejoinEvery: 2}, Attackers: 10},
	}
	for name, atk := range scenarios {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, par), func(t *testing.T) {
				p, setup := chainTestPopulation(t, 31, atk, par)
				eng := NewEngine(p, "chain")
				tk := task.Uniform(1, task.CharCompute)
				models := registeredModels(t)
				fresh := func() *core.RoundView { return mustCapture(p.RoundViewFrom(nil, 1, nil)) }
				ep := eng.TransitivityEpoch(setup)
				defer ep.Release()
				var c MutualityCounters
				for round := 0; round < 4; round++ {
					label := fmt.Sprintf("round %d", round)
					want := fresh()
					eng.MutualityRound(round, tk, &c)
					if got := p.RowsRecaptured(); got != 0 {
						t.Fatalf("%s: round after Reset recaptured %d rows, want 0", label, got)
					}
					assertSameRoundView(t, label+" round view", want, p.head.view)

					want = fresh()
					eng.PerceivedTrust(round, tk)
					assertSameRoundView(t, label+" probe view", want, p.head.view)
					if p.RowsRecaptured() == 0 {
						t.Fatalf("%s: probe after a round's merge recaptured nothing", label)
					}
					eng.PerceivedTrustModels(round, tk, models)
					if got := p.RowsRecaptured(); got != 0 {
						t.Fatalf("%s: probe after a probe recaptured %d rows, want 0", label, got)
					}
					assertSameRoundView(t, label+" second probe view", want, p.head.view)

					ep.Reset()
					if got := p.RowsRecaptured(); got != 0 {
						t.Fatalf("%s: Reset after a probe recaptured %d rows, want 0", label, got)
					}
					assertSameRoundView(t, label+" Reset view", want, ep.link.view)

					freshMemo := core.NewEdgeMemoPooled(want.TrustView, p.cfg.Update.Norm, 1, nil)
					for _, m := range models {
						ep.memo.RequireModel(m, setup.Universe.Tasks)
						freshMemo.RequireModel(m, setup.Universe.Tasks)
						assertSameMemo(t, label, m, setup.Universe.Tasks, freshMemo, ep.memo, want.NumEdges())
						ep.RunModel(m, uint64(round)) // keeps every model's tables across the next Reset
					}
				}
				// A Reset straight after a round rereads only the rows the
				// round wrote, and still matches a full capture.
				eng.MutualityRound(4, tk, &c)
				want := fresh()
				ep.Reset()
				if got := p.RowsRecaptured(); got == 0 || got == want.NumAgents() {
					t.Fatalf("Reset after a round recaptured %d of %d rows, want some", got, want.NumAgents())
				}
				assertSameRoundView(t, "final Reset view", want, ep.link.view)
				freshMemo := core.NewEdgeMemoPooled(want.TrustView, p.cfg.Update.Norm, 1, nil)
				for _, m := range models {
					ep.memo.RequireModel(m, setup.Universe.Tasks)
					freshMemo.RequireModel(m, setup.Universe.Tasks)
					assertSameMemo(t, "final Reset", m, setup.Universe.Tasks, freshMemo, ep.memo, want.NumEdges())
				}
			})
		}
	}
}

// TestOutstandingEpochOutlivesChain mirrors a traced benchmark loop: a
// TransitivityEpoch stays outstanding while rounds (with identity churn),
// probes and private pooled captures move the population's chain past it.
// Its view must keep reading the stores as they were when it was taken,
// its sweeps must match a fresh epoch over that state, and its deferred
// Release must hand each arena back exactly once — so draining the pool
// afterwards never hands one arena to two live views.
func TestOutstandingEpochOutlivesChain(t *testing.T) {
	p, setup := chainTestPopulation(t, 43, AttackConfig{Model: adversary.Whitewashing{RejoinEvery: 2}, Attackers: 10}, 2)
	eng := NewEngine(p, "outstanding")
	tk := task.Uniform(1, task.CharCompute)
	models := registeredModels(t)
	want := p.RoundView(1, nil)
	wantStats := eng.TransitivityRunModel(setup, core.Aggressive, 5)
	func() {
		ep := eng.TransitivityEpoch(setup)
		defer ep.Release()
		held := ep.link.view
		pool := core.NewArenaPool()
		var c MutualityCounters
		for round := 0; round < 4; round++ {
			eng.MutualityRound(round, tk, &c)
			eng.PerceivedTrustModels(round, tk, models)
			private := p.RoundView(2, pool)
			memo := core.NewEdgeMemoPooled(private.TrustView, p.cfg.Update.Norm, 2, pool)
			memo.RequireModel(core.Aggressive, setup.Universe.Tasks)
			memo.Release()
			private.Release()
			if p.head.view == held {
				t.Fatalf("round %d: the chain did not move past the outstanding epoch", round)
			}
			assertSameRoundView(t, fmt.Sprintf("outstanding view after round %d", round), want, held)
		}
		if got := ep.RunModel(core.Aggressive, 5); fmt.Sprint(got) != fmt.Sprint(wantStats) {
			t.Fatalf("outstanding epoch swept %+v, the epoch it was taken from swept %+v", got, wantStats)
		}
	}()
	// Drain every shelf slot of the population's pool into live views: an
	// arena released twice would sit on the shelf twice and back two of
	// them.
	live := p.RoundView(1, nil)
	arenas := map[*core.CompactRecord]bool{}
	for i := 0; i < 9; i++ {
		v := p.RoundView(1, p.arenas)
		defer v.Release()
		assertSameRoundView(t, fmt.Sprintf("pooled capture %d", i), live, v)
		a := &v.EdgeRecords(firstNonEmptyEdge(t, v.TrustView))[0]
		if arenas[a] {
			t.Fatalf("pooled capture %d shares its record arena with a live view: an arena was released twice", i)
		}
		arenas[a] = true
	}
}
