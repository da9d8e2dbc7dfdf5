package sim

import (
	"fmt"
	"testing"

	"siot/internal/core"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// viewTestPopulation builds a small randomized population with seeded
// transitivity experience.
func viewTestPopulation(t *testing.T, seed uint64, numChars int) (*Population, TransitivitySetup) {
	t.Helper()
	profile := socialgen.Profile{
		Name: fmt.Sprintf("viewtest-%d", seed), Nodes: 200, Edges: 1400,
		Communities: 5, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 4, FeaturesPerNode: 2,
	}
	net := socialgen.Generate(profile, seed)
	p := NewPopulation(net, DefaultPopulationConfig(seed))
	r := p.Rand("view-test")
	setup := DefaultTransitivitySetup(numChars, r)
	setup.MaxDepth = 3
	SeedExperience(p, setup, seed)
	return p, setup
}

// TestTransitivityEpochReuseMatchesFreshCapture asserts that a shared
// epoch reused across models produces exactly the stats of per-call
// captures (the searches are pure, so the snapshot cannot go stale between
// runs). Per-search equivalence with the reference oracle is core's
// TestFindViewEquivalence; stats-level continuity is pinned by the
// golden-figure snapshots.
func TestTransitivityEpochReuseMatchesFreshCapture(t *testing.T) {
	p, setup := viewTestPopulation(t, 11, 5)
	eng := NewEngine(p, "epoch-test")
	ep := eng.TransitivityEpoch(setup)
	defer ep.Release()
	for _, pol := range []core.Policy{core.PolicyTraditional, core.PolicyConservative, core.PolicyAggressive} {
		want := eng.TransitivityRunModel(setup, pol.Model(), 99)
		assertSameStats(t, pol.String(), want, ep.RunModel(pol.Model(), 99))
	}
}

// TestFindViewZeroAlloc guards the pooled dense scratch state: a warm
// FindViewModelInto with a required memo and a recycled result must not
// allocate, for every registered model — single-path, per-characteristic,
// and epoch-trained alike.
func TestFindViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool fakes misses under -race; allocation counts are meaningless")
	}
	p, setup := viewTestPopulation(t, 3, 5)
	s := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	view := p.RoundView(1, nil).TrustView
	memo := core.NewEdgeMemo(view, p.Config().Update.Norm, 1)
	tk := setup.Universe.Tasks[0]
	trustor := p.Trustors[0]
	for _, name := range core.ModelNames() {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		memo.RequireModel(m, []task.Task{tk})
		var res core.SearchResult
		s.FindViewModelInto(&res, view, memo, trustor, tk, m) // warm pool and result
		allocs := testing.AllocsPerRun(50, func() {
			s.FindViewModelInto(&res, view, memo, trustor, tk, m)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op after warmup, want 0", name, allocs)
		}
	}
}
