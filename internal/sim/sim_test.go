package sim

import (
	"math"
	"testing"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/graph"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// smallNet returns a small generated network for fast tests.
func smallNet(t *testing.T) *socialgen.Network {
	t.Helper()
	p := socialgen.Profile{
		Name: "test", Nodes: 60, Edges: 240,
		Communities: 5, IntraFrac: 0.7, FoF: 0.5, SizeSkew: 1.0,
		Overlap: 0.2, ChainCommunities: 1, FeatureKinds: 4, FeaturesPerNode: 2,
	}
	return socialgen.Generate(p, 1)
}

func TestNewPopulationRoles(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(1))
	n := net.Graph.NumNodes()
	if len(p.Trustors) != int(0.4*float64(n)) {
		t.Fatalf("trustors = %d", len(p.Trustors))
	}
	if len(p.Trustees) != int(0.4*float64(n)) {
		t.Fatalf("trustees = %d", len(p.Trustees))
	}
	// Roles are disjoint.
	seen := map[core.AgentID]bool{}
	for _, id := range p.Trustors {
		seen[id] = true
	}
	for _, id := range p.Trustees {
		if seen[id] {
			t.Fatalf("node %d is both trustor and trustee", id)
		}
	}
	for _, a := range p.Agents {
		if a == nil {
			t.Fatal("nil agent")
		}
	}
}

func TestNewPopulationDeterministic(t *testing.T) {
	net := smallNet(t)
	a := NewPopulation(net, DefaultPopulationConfig(7))
	b := NewPopulation(net, DefaultPopulationConfig(7))
	for i := range a.Trustors {
		if a.Trustors[i] != b.Trustors[i] {
			t.Fatal("role assignment not deterministic")
		}
	}
	if a.Agents[0].Behavior.BaseCompetence != b.Agents[0].Behavior.BaseCompetence {
		t.Fatal("behaviors not deterministic")
	}
}

func TestNewPopulationValidation(t *testing.T) {
	net := smallNet(t)
	cfg := DefaultPopulationConfig(1)
	cfg.TrustorFrac = 0.7
	cfg.TrusteeFrac = 0.7
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on fractions summing above 1")
		}
	}()
	NewPopulation(net, cfg)
}

func TestTrusteeNeighbors(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(2))
	for _, x := range p.Trustors {
		for _, y := range p.TrusteeNeighbors(x) {
			if k := p.Agent(y).Kind; k != agent.KindTrustee && k != agent.KindDishonestTrustee {
				t.Fatalf("non-trustee neighbor %v (%v)", y, k)
			}
			if !net.Graph.HasEdge(graph.NodeID(x), graph.NodeID(y)) {
				t.Fatalf("non-neighbor returned: %v-%v", x, y)
			}
		}
	}
}

func TestMutualityRoundCounters(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(3))
	eng := &Engine{Pop: p, Parallelism: 1}
	tk := task.Uniform(1, task.CharGPS)
	var c MutualityCounters
	for round := 0; round < 10; round++ {
		eng.MutualityRound(round, tk, &c)
	}
	if c.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if c.Successes+c.Unavailable > c.Requests {
		t.Fatalf("inconsistent counters: %+v", c)
	}
	if c.Uses == 0 {
		t.Fatal("no resource uses logged")
	}
	if c.Abuses > c.Uses {
		t.Fatalf("abuses exceed uses: %+v", c)
	}
	for _, rate := range []float64{c.SuccessRate(), c.UnavailableRate(), c.AbuseRate()} {
		if rate < 0 || rate > 1 {
			t.Fatalf("rate out of range: %v", rate)
		}
	}
}

func TestMutualityThetaReducesAbuse(t *testing.T) {
	// The headline claim of Fig. 7: raising θ lowers the abuse rate and
	// raises the unavailable rate.
	net := smallNet(t)
	run := func(theta float64) MutualityCounters {
		cfg := DefaultPopulationConfig(4)
		cfg.Theta = theta
		eng := &Engine{Pop: NewPopulation(net, cfg), Parallelism: 1}
		tk := task.Uniform(1, task.CharGPS)
		var c MutualityCounters
		for round := 0; round < 40; round++ {
			eng.MutualityRound(round, tk, &c)
		}
		return c
	}
	open := run(0)
	strict := run(0.6)
	if open.Unavailable != 0 {
		t.Fatalf("theta=0 produced unavailability: %+v", open)
	}
	if strict.AbuseRate() >= open.AbuseRate() {
		t.Fatalf("abuse did not drop: open=%v strict=%v", open.AbuseRate(), strict.AbuseRate())
	}
	if strict.UnavailableRate() <= open.UnavailableRate() {
		t.Fatalf("unavailability did not rise: open=%v strict=%v",
			open.UnavailableRate(), strict.UnavailableRate())
	}
}

func TestSeedExperience(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(5))
	r := p.Rand("seed")
	setup := DefaultTransitivitySetup(5, r)
	experienced := SeedExperience(p, setup, 5)

	holders := 0
	for node, tasks := range experienced {
		if len(tasks) != setup.TasksPerNode {
			t.Fatalf("node %d has %d experienced tasks", node, len(tasks))
		}
		if len(tasks) == 2 && tasks[0].Type() == tasks[1].Type() {
			t.Fatalf("node %d has duplicate experienced tasks", node)
		}
		// Records about this node live only at its social neighbors, and a
		// holder of one experienced task holds both.
		id := core.AgentID(node)
		for _, u := range p.Neighbors(id) {
			n := 0
			for _, tk := range tasks {
				if _, ok := p.Agent(u).Store.Record(id, tk.Type()); ok {
					n++
				}
			}
			if n != 0 && n != len(tasks) {
				t.Fatalf("neighbor %d holds partial records about %d", u, node)
			}
			holders += n
		}
	}
	if holders == 0 {
		t.Fatal("no experience records seeded at all")
	}
	// Capabilities assigned for the full alphabet.
	for c := 0; c < setup.Universe.NumCharacteristics; c++ {
		if _, ok := p.Agents[0].Behavior.Competence[task.Characteristic(c)]; !ok {
			t.Fatalf("characteristic %d has no capability", c)
		}
	}
}

func TestTransitivityPolicyOrdering(t *testing.T) {
	// The paper's central transitivity result: aggressive finds at least as
	// many trustees as conservative, which beats traditional; unavailable
	// rates order the other way.
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(6))
	r := p.Rand("transit")
	setup := DefaultTransitivitySetup(5, r)
	SeedExperience(p, setup, 6)

	eng := &Engine{Pop: p, Parallelism: 1}
	trad := eng.TransitivityRunModel(setup, core.PolicyTraditional.Model(), 6)
	cons := eng.TransitivityRunModel(setup, core.PolicyConservative.Model(), 6)
	aggr := eng.TransitivityRunModel(setup, core.PolicyAggressive.Model(), 6)

	if cons.AvgPotentialTrustees() < trad.AvgPotentialTrustees() {
		t.Fatalf("conservative found fewer trustees (%v) than traditional (%v)",
			cons.AvgPotentialTrustees(), trad.AvgPotentialTrustees())
	}
	if aggr.AvgPotentialTrustees() < cons.AvgPotentialTrustees() {
		t.Fatalf("aggressive found fewer trustees (%v) than conservative (%v)",
			aggr.AvgPotentialTrustees(), cons.AvgPotentialTrustees())
	}
	if aggr.UnavailableRate() > trad.UnavailableRate() {
		t.Fatalf("aggressive unavailability %v above traditional %v",
			aggr.UnavailableRate(), trad.UnavailableRate())
	}
	if len(trad.InquiredPerTrustor) != trad.Requests {
		t.Fatal("inquired series length mismatch")
	}
}

func TestTransitivityStatsRates(t *testing.T) {
	s := TransitivityStats{Requests: 10, Successes: 4, Unavailable: 3, PotentialTrustees: 25}
	if s.SuccessRate() != 0.4 || s.UnavailableRate() != 0.3 || s.AvgPotentialTrustees() != 2.5 {
		t.Fatalf("rates wrong: %+v", s)
	}
	var zero TransitivityStats
	if zero.SuccessRate() != 0 {
		t.Fatal("zero requests rate not 0")
	}
}

func TestNetProfitStrategies(t *testing.T) {
	// Fig. 13's claim: the net-profit strategy converges to a higher
	// average profit than the success-rate strategy.
	net := smallNet(t)
	iters := 600
	mean := func(strategy Strategy) float64 {
		p := NewPopulation(net, DefaultPopulationConfig(8))
		series := NewEngine(p, "test").NetProfitRun(iters, strategy, 8)
		var sum float64
		for _, v := range series[iters/2:] { // converged half
			sum += v
		}
		return sum / float64(iters/2)
	}
	first := mean(StrategySuccessRate)
	second := mean(StrategyNetProfit)
	if second <= first {
		t.Fatalf("net-profit strategy (%v) did not beat success-rate strategy (%v)", second, first)
	}
	if math.IsNaN(first) || math.IsNaN(second) {
		t.Fatal("NaN profits")
	}
}

func TestNetProfitSeriesLength(t *testing.T) {
	net := smallNet(t)
	p := NewPopulation(net, DefaultPopulationConfig(9))
	series := NewEngine(p, "test").NetProfitRun(50, StrategyNetProfit, 9)
	if len(series) != 50 {
		t.Fatalf("series length %d", len(series))
	}
	for _, v := range series {
		if v < -2 || v > 1 {
			t.Fatalf("profit %v outside [-2,1]", v)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategySuccessRate.String() != "first strategy" || StrategyNetProfit.String() != "second strategy" {
		t.Fatal("strategy names wrong")
	}
}
