package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"siot/internal/core"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// assertSameView requires two captures to be byte-identical: same edge
// count and, for every directed CSR edge, the exact same record sequence.
func assertSameView(t *testing.T, label string, want, got *core.TrustView) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() || got.NumAgents() != want.NumAgents() {
		t.Fatalf("%s: view shape %d agents/%d edges, want %d/%d",
			label, got.NumAgents(), got.NumEdges(), want.NumAgents(), want.NumEdges())
	}
	for e := int32(0); e < int32(want.NumEdges()); e++ {
		w, g := want.EdgeRecords(e), got.EdgeRecords(e)
		if len(w) != len(g) {
			t.Fatalf("%s: edge %d holds %d records, want %d", label, e, len(g), len(w))
		}
		for i := range w {
			wt, gt := want.Tasks()[w[i].Ref], got.Tasks()[g[i].Ref]
			if w[i].Count != g[i].Count || w[i].Exp != g[i].Exp ||
				wt.Type() != gt.Type() ||
				!reflect.DeepEqual(wt.Characteristics(), gt.Characteristics()) ||
				!reflect.DeepEqual(wt.Weights(), gt.Weights()) {
				t.Fatalf("%s: edge %d record %d = %+v, want %+v", label, e, i, g[i], w[i])
			}
		}
	}
}

// TestCaptureParallelEquivalence pins the capture contract: the parallel
// two-pass capture is byte-identical to the serial reference capture at
// every worker count, pooled or not.
func TestCaptureParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{5, 21} {
		p, _ := viewTestPopulation(t, seed, 5)
		want := p.RoundView(1, nil).TrustView // serial reference
		pool := core.NewArenaPool()
		for _, workers := range []int{1, 4, 8} {
			label := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			assertSameView(t, label+" unpooled", want, p.RoundView(workers, nil).TrustView)
			got := p.RoundView(workers, pool)
			assertSameView(t, label+" pooled", want, got.TrustView)
			got.Release() // next worker count re-draws the same arenas
		}
	}
}

// mutateStores perturbs the population's live trust records so a stale
// arena is distinguishable from a fresh capture: every trustor observes a
// new outcome about each trustee neighbor (new record values and, for
// unseen task types, new record counts).
func mutateStores(p *Population, tk task.Task) {
	for _, x := range p.Trustors {
		for _, c := range p.candidates(x) {
			p.Agent(x).Store.Observe(c.ID, tk, core.Outcome{Success: true, Gain: 1}, core.PerfectEnv())
		}
	}
}

// TestArenaPoolNoStaleRecords is the pool correctness guard: capture →
// release → capture on a mutated population must match a fresh unpooled
// capture exactly — reused arenas may not leak records from the released
// epoch.
func TestArenaPoolNoStaleRecords(t *testing.T) {
	p, setup := viewTestPopulation(t, 13, 5)
	pool := core.NewArenaPool()
	first := p.RoundView(4, pool)
	if first.NumEdges() == 0 {
		t.Fatal("empty capture")
	}
	first.Release()
	mutateStores(p, setup.Universe.Tasks[0])
	got := p.RoundView(4, pool)
	assertSameView(t, "post-mutation pooled capture", p.RoundView(1, nil).TrustView, got.TrustView)
}

// TestEpochResetMatchesFreshEpoch asserts that Reset — the arena-keeping
// re-capture path — serves exactly the stats of a newly built epoch after
// the stores mutated, and that the memo's stale tables are not consulted.
func TestEpochResetMatchesFreshEpoch(t *testing.T) {
	p, setup := viewTestPopulation(t, 17, 5)
	eng := &Engine{Pop: p, Parallelism: 2}
	ep := eng.TransitivityEpoch(setup)
	ep.RunModel(core.Aggressive, 7) // fill memo tables pre-mutation
	mutateStores(p, setup.Universe.Tasks[1])
	ep.Reset()
	defer ep.Release()
	for _, m := range []core.TrustModel{core.Traditional, core.Conservative, core.Aggressive} {
		want := eng.TransitivityRunModel(setup, m, 7)
		got := ep.RunModel(m, 7)
		if want.Requests != got.Requests || want.Successes != got.Successes ||
			want.Unavailable != got.Unavailable || want.PotentialTrustees != got.PotentialTrustees {
			t.Fatalf("%s: reset epoch stats %+v, want %+v", m.Name(), got, want)
		}
	}
}

// TestEpochArenaReuse pins the pooling payoff: after warmup, a
// capture–release cycle re-draws the same record arena instead of
// allocating a new one. The alloc-count guard self-skips under -race like
// TestFindViewZeroAlloc (the race runtime changes allocation behavior).
func TestEpochArenaReuse(t *testing.T) {
	p, _ := viewTestPopulation(t, 29, 5)
	pool := core.NewArenaPool()
	v := p.RoundView(1, pool)
	firstArena := &v.EdgeRecords(firstNonEmptyEdge(t, v.TrustView))[0]
	v.Release()
	v2 := p.RoundView(1, pool)
	secondArena := &v2.EdgeRecords(firstNonEmptyEdge(t, v2.TrustView))[0]
	if firstArena != secondArena {
		t.Error("second pooled capture did not reuse the released record arena")
	}
	v2.Release()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	allocs := testing.AllocsPerRun(20, func() {
		v := p.RoundView(1, pool)
		v.Release()
	})
	// The view struct, capture-source closures, and pool bookkeeping still
	// allocate; the point is that the ~E-record arena does not.
	if allocs > 16 {
		t.Errorf("warm pooled capture made %.0f allocs/op, want <= 16 (arena not reused?)", allocs)
	}
}

func firstNonEmptyEdge(t *testing.T, v *core.TrustView) int32 {
	t.Helper()
	for e := int32(0); e < int32(v.NumEdges()); e++ {
		if len(v.EdgeRecords(e)) > 0 {
			return e
		}
	}
	t.Fatal("no edge holds records")
	return 0
}

// TestPopulationDefaultsZeroNorm pins that a population built with a zero
// Normalizer normalizes its views the way NewStore normalizes its stores:
// every captured edge's BestTW equals the live store's on every task.
func TestPopulationDefaultsZeroNorm(t *testing.T) {
	net := socialgen.Generate(socialgen.Profile{
		Name: "zero-norm", Nodes: 200, Edges: 1400,
		Communities: 5, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 4, FeaturesPerNode: 2,
	}, 9)
	cfg := DefaultPopulationConfig(9)
	cfg.Update.Norm = core.Normalizer{}
	p := NewPopulation(net, cfg)
	setup := DefaultTransitivitySetup(5, p.Rand("zero-norm"))
	SeedExperience(p, setup, 9)
	view := p.RoundView(1, nil)
	defer view.Release()
	known := 0
	for u := range p.Agents {
		x := core.AgentID(u)
		for _, y := range p.Neighbors(x) {
			e, ok := view.EdgeIndex(x, y)
			if !ok {
				t.Fatalf("edge %d→%d missing from the view", x, y)
			}
			for _, tk := range setup.Universe.Tasks {
				got, gotOK := view.BestTW(e, tk)
				want, wantOK := p.Agent(x).Store.BestTW(y, tk)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d→%d task %d: view (%v, %v), store (%v, %v)", x, y, tk.Type(), got, gotOK, want, wantOK)
				}
				if wantOK && want > 0 {
					known++
				}
			}
		}
	}
	if known == 0 {
		t.Fatal("no edge holds a positive trust value — fixture too small to test")
	}
}
