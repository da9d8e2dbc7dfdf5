// Package sim animates the trust model over a social network: it assigns
// roles and ground-truth behaviors to the nodes of a generated (or loaded)
// social graph and drives the delegation rounds behind the paper's
// simulation experiments — mutuality (Fig. 7), transitivity (Figs. 9–12 and
// Table 2), and net-profit learning (Fig. 13).
package sim

import (
	"fmt"
	"math/rand/v2"
	"runtime"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/graph"
	"siot/internal/par"
	"siot/internal/rng"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// PopulationConfig controls role assignment and agent behavior generation.
type PopulationConfig struct {
	// Seed drives every random choice of the population build.
	Seed uint64
	// TrustorFrac and TrusteeFrac are the role fractions; the paper uses
	// "about 40% of the nodes as trustors and about 40% of the nodes as
	// trustees". Remaining nodes are bystanders (they relay recommendations
	// but neither request nor serve).
	TrustorFrac, TrusteeFrac float64
	// Theta is the reverse-evaluation threshold θ_y(τ) installed on every
	// trustee (Fig. 7 sweeps it).
	Theta float64
	// Update configures every agent's trust store.
	Update core.UpdateConfig
	// Parallelism is the default worker-pool width of Engine rounds run
	// over this population: 0 uses GOMAXPROCS, 1 runs serially. Results are
	// bit-identical across all values (see Engine).
	Parallelism int
	// Attack injects a trust-attack scenario: Attack.Attackers trustees run
	// Attack.Model against the delegation rounds. The zero value disables
	// the adversary subsystem, leaving every round bit-identical to a build
	// without it.
	Attack AttackConfig
}

// DefaultPopulationConfig mirrors the paper's simulation setup.
func DefaultPopulationConfig(seed uint64) PopulationConfig {
	return PopulationConfig{
		Seed:        seed,
		TrustorFrac: 0.4,
		TrusteeFrac: 0.4,
		Update:      core.DefaultUpdateConfig(),
	}
}

// Population is a social network whose nodes are live agents.
type Population struct {
	Net    *socialgen.Network
	Agents []*agent.Agent // indexed by node ID
	// Trustors and Trustees list the role members in ascending ID order.
	Trustors []core.AgentID
	Trustees []core.AgentID
	// Attackers lists the trustees running the configured attack model, in
	// ascending ID order (empty when no attack is configured).
	Attackers []core.AgentID
	// attackers flags the Attackers by agent ID. It is allocated with the
	// population, attack or not, because the probes read it unguarded.
	attackers []bool
	cfg       PopulationConfig

	// CSR adjacency over agent IDs, built once at population construction
	// (the social graph is frozen from then on): adjOff/adjTo mirror the
	// graph and candMask flags trustee-kind agents by dense slot. Neighbor
	// queries hand out shared subslices with zero per-call allocation.
	adjOff   []int32
	adjTo    []core.AgentID
	candMask []bool
	// rowOff/rows are the candidate rows, built with the adjacency:
	// rows[rowOff[x]:rowOff[x+1]] holds trustor x's trustee-kind
	// neighbors in ascending ID order with their x→y edge ids, the direct
	// candidate set of the mutuality and net-profit experiments. Every
	// other agent's row is empty.
	rowOff []int32
	rows   []trusteeEdge

	// head is the newest link of the population's epoch chain, nil before
	// the first capture request; the population holds it until a capture
	// of changed stores replaces it. recaptured is how many rows the last
	// capture request read from the stores.
	head       *epochLink
	recaptured int
	// arenas recycles the trust-view arenas and memo tables of the
	// population's epochs: the links of its chain, probe memos and
	// transitivity memos draw from it, so repeated rounds and sweeps
	// (benchmark repetitions, per-call Engine.TransitivityRunModel epochs)
	// reuse the same backing memory instead of re-allocating ~2.3 MB per
	// epoch at 1k nodes (~23 MB at 10k, 10x that at 100k). The pool lives
	// and dies with the population, so a dropped population frees them.
	arenas *core.ArenaPool
}

// NewPopulation assigns roles and behaviors over the given social network.
// Trustor responsibility is drawn uniformly from [0, 1] ("we assign each
// trustor a trustworthiness value which is a random number in [0, 1]") and
// trustee competence per characteristic is uniform in [0, 1] as in §5.5.
//
// The build fans out over PopulationConfig.Parallelism workers (par.For)
// with the engine's determinism recipe: the role permutation is computed
// once, each node's behavior is drawn from a private per-node rng
// sub-stream, and the Agents array and CSR adjacency are written per node —
// so the result is bit-identical at every worker count
// (TestPopulationParallelEquivalence).
func NewPopulation(net *socialgen.Network, cfg PopulationConfig) *Population {
	n := net.Graph.NumNodes()
	if n == 0 {
		panic("sim: empty network")
	}
	if cfg.TrustorFrac < 0 || cfg.TrusteeFrac < 0 || cfg.TrustorFrac+cfg.TrusteeFrac > 1 {
		panic(fmt.Sprintf("sim: invalid role fractions %v/%v", cfg.TrustorFrac, cfg.TrusteeFrac))
	}
	// The role permutation keeps the serial builder's derivation (it was
	// the "population" stream's first draw), so role assignment is stable;
	// only the behavior draws moved to per-node sub-streams.
	perm := rng.New(cfg.Seed, "population", net.Profile.Name).Perm(n)
	numTrustors := int(cfg.TrustorFrac * float64(n))
	numTrustees := int(cfg.TrusteeFrac * float64(n))
	kinds := make([]agent.Kind, n)
	for i, node := range perm {
		switch {
		case i < numTrustors:
			kinds[node] = agent.KindTrustor
		case i < numTrustors+numTrustees:
			kinds[node] = agent.KindTrustee
		default:
			kinds[node] = agent.KindBystander
		}
	}

	if cfg.Update.Catalog == nil {
		// One catalog per population: every agent's store interns into it, so
		// compact records from any store resolve against one ref namespace
		// and view captures need no translation.
		cfg.Update.Catalog = task.NewCatalog()
	}
	if cfg.Update.Norm == (core.Normalizer{}) {
		// Views and memos normalize with the population's Norm, not a
		// store's, so they take NewStore's default too.
		cfg.Update.Norm = core.UnitNormalizer()
	}
	p := &Population{Net: net, Agents: make([]*agent.Agent, n), attackers: make([]bool, n), cfg: cfg, arenas: core.NewArenaPool()}
	workers := p.setupWorkers()
	behaviorLabel := "population-behavior:" + net.Profile.Name
	par.For(n, workers, func(_, lo, hi int) {
		for node := lo; node < hi; node++ {
			r := rng.Split(cfg.Seed, behaviorLabel, node)
			b := agent.Behavior{
				BaseCompetence: r.Float64(),
				Responsibility: r.Float64(),
				Competence:     map[task.Characteristic]float64{},
			}
			a := agent.New(core.AgentID(node), kinds[node], b, cfg.Update)
			a.Theta = cfg.Theta
			p.Agents[node] = a
		}
	})
	p.Trustors = make([]core.AgentID, 0, numTrustors)
	p.Trustees = make([]core.AgentID, 0, numTrustees)
	for node, k := range kinds {
		switch k {
		case agent.KindTrustor:
			p.Trustors = append(p.Trustors, core.AgentID(node))
		case agent.KindTrustee:
			p.Trustees = append(p.Trustees, core.AgentID(node))
		}
	}
	if cfg.Attack.Enabled() {
		p.installAttackers()
	}
	p.buildCSR(workers)
	return p
}

// setupWorkers resolves the worker count of the population build and
// seeding passes, and of engines that set no Parallelism of their own: the
// config's Parallelism, falling back to GOMAXPROCS.
func (p *Population) setupWorkers() int {
	if p.cfg.Parallelism > 0 {
		return p.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// buildCSR flattens the graph adjacency into shared CSR arrays, fills
// the dense candidate mask and cuts the trustors' candidate rows. It runs
// after role assignment (and attacker installation — both trustee kinds
// count as candidates, so the mask is stable under the attack subsystem's
// kind flip). The offsets are prefix-summed serially, each node's span and
// mask slot are written by the worker handed that node, and the rows are
// appended serially in agent order, so the arrays are identical at every
// worker count.
func (p *Population) buildCSR(workers int) {
	g := p.Net.Graph
	n := g.NumNodes()
	p.adjOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		p.adjOff[u+1] = p.adjOff[u] + int32(len(g.Neighbors(graph.NodeID(u))))
	}
	p.adjTo = make([]core.AgentID, p.adjOff[n])
	p.candMask = make([]bool, n)
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			span := p.adjTo[p.adjOff[u]:p.adjOff[u+1]]
			for i, v := range g.Neighbors(graph.NodeID(u)) {
				span[i] = core.AgentID(v)
			}
			k := p.Agents[u].Kind
			p.candMask[u] = k == agent.KindTrustee || k == agent.KindDishonestTrustee
		}
	})
	p.rowOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		if p.Agents[u].Kind == agent.KindTrustor {
			for e := p.adjOff[u]; e < p.adjOff[u+1]; e++ {
				if y := p.adjTo[e]; p.candMask[y] {
					p.rows = append(p.rows, trusteeEdge{ID: y, Edge: e})
				}
			}
		}
		p.rowOff[u+1] = int32(len(p.rows))
	}
}

// trusteeEdge is one entry of a candidate row: a trustee-kind neighbor of
// the trustor and the CSR index of the trustor's edge to it, by which
// round views key records and usage.
type trusteeEdge struct {
	ID   core.AgentID
	Edge int32
}

// candidates returns agent x's candidate row; it is a shared view and
// must not be modified.
func (p *Population) candidates(x core.AgentID) []trusteeEdge {
	return p.rows[p.rowOff[x]:p.rowOff[x+1]]
}

// Agent returns the agent at a node.
func (p *Population) Agent(id core.AgentID) *agent.Agent { return p.Agents[id] }

// Config returns the population configuration.
func (p *Population) Config() PopulationConfig { return p.cfg }

// Rand derives a deterministic stream for one experiment phase.
func (p *Population) Rand(label string) *rand.Rand {
	return rng.New(p.cfg.Seed, "sim", p.Net.Profile.Name, label)
}

// Neighbors returns the social neighbors of an agent. The slice is a shared
// view into the population's CSR adjacency and must not be modified.
func (p *Population) Neighbors(id core.AgentID) []core.AgentID {
	return p.adjTo[p.adjOff[id]:p.adjOff[id+1]]
}

// Searcher builds a transitivity searcher over the population's frozen
// views. Any node may relay recommendations, but only trustee-role agents
// may become potential trustees, matching the paper's role split.
func (p *Population) Searcher(maxDepth int, omega1, omega2 float64) *core.Searcher {
	return &core.Searcher{
		MaxDepth:      maxDepth,
		Omega1:        omega1,
		Omega2:        omega2,
		CandidateMask: p.candMask,
	}
}

// Catalog returns the task catalog shared by every store of the population.
func (p *Population) Catalog() *task.Catalog { return p.cfg.Update.Catalog }

// RoundSource exposes the population's stores to a round-view capture
// (core.CaptureRoundView): the shared catalog, per-edge record counts for
// the sizing pass, in-place compact appends for the fill pass, each
// store's mutation stamp for predecessor reuse, and the per-edge usage logs
// behind the reverse evaluation.
func (p *Population) RoundSource() core.RoundSource {
	cat := p.Catalog()
	return core.RoundSource{
		Catalog: cat,
		Count: func(holder, about core.AgentID) int {
			return p.Agents[holder].Store.RecordCount(about)
		},
		Append: func(holder, about core.AgentID, buf []core.CompactRecord) []core.CompactRecord {
			return p.Agents[holder].Store.AppendCompact(about, cat, buf)
		},
		Version: func(holder core.AgentID) uint64 {
			return p.Agents[holder].Store.Version()
		},
		Usage: func(holder, about core.AgentID) core.UsageLog {
			return p.Agents[holder].Store.Usage(about)
		},
	}
}

// RoundView captures a frozen snapshot of everything a delegation round
// reads — per-edge experience records and usage counters — over a worker
// pool, drawing arenas from pool (workers <= 1 captures serially, a nil
// pool allocates fresh). Byte-identical at every worker count. The view is
// the caller's own, outside the population's epoch chain, which the
// engine's rounds, probes and transitivity epochs read from. A population
// large enough to overflow the arena offset space panics with
// ErrArenaOverflow; RoundViewFrom returns it instead.
func (p *Population) RoundView(workers int, pool *core.ArenaPool) *core.RoundView {
	return mustCapture(p.RoundViewFrom(nil, workers, pool))
}

// mustCapture unwraps a capture, panicking on its error: the engine's
// paths have no error return, and a capture fails only when the population
// overflows the arena offset space.
func mustCapture(v *core.RoundView, err error) *core.RoundView {
	if err != nil {
		panic(err)
	}
	return v
}

// RoundViewFrom is RoundView copying from a predecessor epoch: every row
// whose store is unchanged since prev (an unreleased view of this
// population, nil for a full capture) was captured is copied from it, and
// only the rows written since are read from the stores — byte-identical to
// a full capture (core.CaptureRoundView). Capture errors are returned.
func (p *Population) RoundViewFrom(prev *core.RoundView, workers int, pool *core.ArenaPool) (*core.RoundView, error) {
	return core.CaptureRoundView(p.adjOff, p.adjTo, p.RoundSource(), p.cfg.Update.Norm, workers, pool, prev)
}
