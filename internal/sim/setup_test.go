package sim

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// These tests pin the parallel setup pipeline's determinism contract: the
// sharded population build and the sharded seeding pass must produce
// byte-identical roles, behaviors, CSR adjacency, and store contents at
// every worker-pool width.

// setupTestNet returns a randomized community network for the equivalence
// tests (distinct from the calibrated paper profiles).
func setupTestNet(t *testing.T, seed uint64) *socialgen.Network {
	t.Helper()
	profile := socialgen.Profile{
		Name: fmt.Sprintf("setuptest-%d", seed), Nodes: 300, Edges: 2100,
		Communities: 6, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 5, FeaturesPerNode: 2,
	}
	return socialgen.Generate(profile, seed)
}

// assertSamePopulation requires two populations to be byte-identical:
// roles, per-agent behaviors, and the full CSR adjacency.
func assertSamePopulation(t *testing.T, label string, want, got *Population) {
	t.Helper()
	if !slices.Equal(want.Trustors, got.Trustors) || !slices.Equal(want.Trustees, got.Trustees) ||
		!slices.Equal(want.Attackers, got.Attackers) {
		t.Fatalf("%s: role lists differ", label)
	}
	for i, w := range want.Agents {
		g := got.Agents[i]
		if w.Kind != g.Kind || w.Theta != g.Theta {
			t.Fatalf("%s: agent %d differs: %+v vs %+v", label, i, w, g)
		}
		if w.Behavior.BaseCompetence != g.Behavior.BaseCompetence ||
			w.Behavior.Responsibility != g.Behavior.Responsibility ||
			w.Behavior.Malice != g.Behavior.Malice ||
			!maps.Equal(w.Behavior.Competence, g.Behavior.Competence) {
			t.Fatalf("%s: agent %d behavior differs:\nwant %+v\ngot  %+v", label, i, w.Behavior, g.Behavior)
		}
	}
	if !slices.Equal(want.adjOff, got.adjOff) || !slices.Equal(want.adjTo, got.adjTo) ||
		!slices.Equal(want.candMask, got.candMask) {
		t.Fatalf("%s: CSR adjacency differs", label)
	}
}

// storeSnapshot serializes every agent's store — records and usage logs —
// so two populations' trust state can be compared byte for byte.
func storeSnapshot(t *testing.T, p *Population) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, a := range p.Agents {
		if err := a.Store.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestPopulationParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		net := setupTestNet(t, seed)
		build := func(workers int, atk AttackConfig) *Population {
			cfg := DefaultPopulationConfig(seed)
			cfg.Theta = 0.3
			cfg.Parallelism = workers
			cfg.Attack = atk
			return NewPopulation(net, cfg)
		}
		attack := AttackConfig{Model: adversary.BadMouthing{}, Attackers: 15}
		for _, atk := range []AttackConfig{{}, attack} {
			want := build(1, atk)
			for _, workers := range []int{4, 8} {
				label := fmt.Sprintf("seed=%d attack=%v workers=%d", seed, atk.Enabled(), workers)
				assertSamePopulation(t, label, want, build(workers, atk))
			}
		}
	}
}

func TestSeedParallelEquivalence(t *testing.T) {
	type variant struct {
		name string
		run  func(p *Population, setup TransitivitySetup, seed uint64) [][]task.Task
	}
	variants := []variant{
		{"standard", SeedExperience},
		{"features", SeedExperienceFromFeatures},
	}
	for _, seed := range []uint64{5, 23} {
		net := setupTestNet(t, seed)
		attack := AttackConfig{Model: adversary.OnOff{Period: 6, Duty: 0.5}, Attackers: 10}
		for _, atk := range []AttackConfig{{}, attack} {
			for _, v := range variants {
				seedOnce := func(workers int) ([][]task.Task, []byte, *Population) {
					cfg := DefaultPopulationConfig(seed)
					cfg.Attack = atk
					cfg.Parallelism = workers
					p := NewPopulation(net, cfg)
					setup := DefaultTransitivitySetup(5, p.Rand("setup-equivalence"))
					exp := v.run(p, setup, seed)
					return exp, storeSnapshot(t, p), p
				}
				wantExp, wantStores, wantPop := seedOnce(1)
				if len(wantStores) == 0 {
					t.Fatalf("%s seed=%d: empty store snapshot", v.name, seed)
				}
				for _, workers := range []int{4, 8} {
					label := fmt.Sprintf("%s seed=%d attack=%v workers=%d", v.name, seed, atk.Enabled(), workers)
					gotExp, gotStores, gotPop := seedOnce(workers)
					if len(gotExp) != len(wantExp) {
						t.Fatalf("%s: experienced length differs", label)
					}
					for i := range wantExp {
						if len(gotExp[i]) != len(wantExp[i]) {
							t.Fatalf("%s: node %d experienced %d tasks, want %d", label, i, len(gotExp[i]), len(wantExp[i]))
						}
						for j := range wantExp[i] {
							if gotExp[i][j].Type() != wantExp[i][j].Type() {
								t.Fatalf("%s: node %d task %d differs", label, i, j)
							}
						}
					}
					if !bytes.Equal(wantStores, gotStores) {
						t.Fatalf("%s: store contents differ from the serial pass", label)
					}
					// The seeding pass also draws the ground-truth
					// capabilities; they must match too.
					assertSamePopulation(t, label, wantPop, gotPop)
				}
			}
		}
	}
}

// TestSeedParallelMatchesSeedLoop cross-checks the bulk ingest against the
// per-record reference: replaying the per-node draws through plain
// Store.Seed calls must produce the same stores the SeedSorted pipeline
// built.
func TestSeedParallelMatchesSeedLoop(t *testing.T) {
	const seed = 29
	net := setupTestNet(t, seed)
	build := func() (*Population, TransitivitySetup) {
		cfg := DefaultPopulationConfig(seed)
		cfg.Parallelism = 4
		p := NewPopulation(net, cfg)
		return p, DefaultTransitivitySetup(5, p.Rand("setup-equivalence"))
	}
	bulk, setup := build()
	SeedExperience(bulk, setup, seed)

	loop, _ := build()
	// Reference: identical per-node draws, applied record by record in
	// node order through the legacy Seed path.
	for node := range loop.Agents {
		ctx := agentSeedCtx{p: loop, node: node, r: rng.Split(seed, "seed-experience:"+net.Profile.Name, node)}
		ctx.emit = func(u core.AgentID, ti int, s float64) {
			loop.Agent(u).Store.Seed(core.AgentID(node), setup.Universe.Tasks[ti],
				core.Expectation{S: s, G: s, D: 1 - s, C: 0})
		}
		seedNode(&ctx, setup)
	}
	if !bytes.Equal(storeSnapshot(t, bulk), storeSnapshot(t, loop)) {
		t.Fatal("bulk-seeded stores differ from the per-record Seed reference")
	}
}
