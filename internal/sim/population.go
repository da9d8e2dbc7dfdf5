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
	"slices"
	"sync"

	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/graph"
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
	attackers map[core.AgentID]bool
	cfg       PopulationConfig

	// CSR adjacency over agent IDs, built once at population construction
	// (the social graph is frozen from then on): adjOff/adjTo mirror the
	// graph, trusteeOff/trusteeTo keep only trustee-kind targets, and
	// candMask flags trustee-kind agents by dense slot. Neighbor queries
	// hand out shared subslices with zero per-call allocation.
	adjOff     []int32
	adjTo      []core.AgentID
	trusteeOff []int32
	trusteeTo  []core.AgentID
	candMask   []bool
}

// NewPopulation assigns roles and behaviors over the given social network.
// Trustor responsibility is drawn uniformly from [0, 1] ("we assign each
// trustor a trustworthiness value which is a random number in [0, 1]") and
// trustee competence per characteristic is uniform in [0, 1] as in §5.5.
//
// The build is sharded over the population's worker pool
// (PopulationConfig.Parallelism) with the engine's determinism recipe: the
// role permutation is computed once, each node's behavior is drawn from a
// private per-node rng sub-stream, and the Agents array and CSR adjacency
// fill disjoint spans — so the result is bit-identical at every worker
// count (TestPopulationParallelEquivalence).
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
	p := &Population{Net: net, Agents: make([]*agent.Agent, n), cfg: cfg}
	workers := p.setupWorkers()
	behaviorLabel := "population-behavior:" + net.Profile.Name
	forNodes(n, workers, func(_, lo, hi int) {
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

func sortIDs(ids []core.AgentID) {
	slices.Sort(ids)
}

// setupWorkers resolves the worker-pool width of the population build and
// seeding passes — the same rule as Engine.workers: the config's
// Parallelism, falling back to GOMAXPROCS.
func (p *Population) setupWorkers() int {
	if p.cfg.Parallelism > 0 {
		return p.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forNodes runs fn over contiguous chunks of [0, n) on a pool of workers
// and waits for completion. Chunks are disjoint, so fn may write per-node
// state freely; each call is a barrier (later passes may read what earlier
// ones wrote). fn also receives its worker index for per-worker
// accumulation. Determinism is the caller's job: per-node rng sub-streams,
// no reads of another chunk's in-flight writes.
func forNodes(n, workers int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// buildCSR flattens the graph adjacency into shared CSR arrays and derives
// the trustee-filtered variant plus the dense candidate mask. It runs after
// role assignment (and attacker installation — both trustee kinds count as
// candidates, so the mask is stable under the attack subsystem's kind
// flip). Every pass either prefix-sums serially or fills disjoint spans in
// parallel, so the arrays are identical at every worker count.
func (p *Population) buildCSR(workers int) {
	g := p.Net.Graph
	n := g.NumNodes()
	p.adjOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		p.adjOff[u+1] = p.adjOff[u] + int32(len(g.Neighbors(graph.NodeID(u))))
	}
	p.adjTo = make([]core.AgentID, p.adjOff[n])
	p.candMask = make([]bool, n)
	forNodes(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			span := p.adjTo[p.adjOff[u]:p.adjOff[u+1]]
			for i, v := range g.Neighbors(graph.NodeID(u)) {
				span[i] = core.AgentID(v)
			}
			k := p.Agents[u].Kind
			p.candMask[u] = k == agent.KindTrustee || k == agent.KindDishonestTrustee
		}
	})
	// Trustee-filtered CSR: per-node counts (reading the completed mask),
	// serial prefix sum, then disjoint span fill.
	trusteeCnt := make([]int32, n)
	forNodes(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			c := int32(0)
			for _, v := range p.adjTo[p.adjOff[u]:p.adjOff[u+1]] {
				if p.candMask[v] {
					c++
				}
			}
			trusteeCnt[u] = c
		}
	})
	p.trusteeOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		p.trusteeOff[u+1] = p.trusteeOff[u] + trusteeCnt[u]
	}
	p.trusteeTo = make([]core.AgentID, p.trusteeOff[n])
	forNodes(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			out := p.trusteeTo[p.trusteeOff[u]:p.trusteeOff[u+1]]
			i := 0
			for _, v := range p.adjTo[p.adjOff[u]:p.adjOff[u+1]] {
				if p.candMask[v] {
					out[i] = v
					i++
				}
			}
		}
	})
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

// TrusteeNeighbors returns the trustee-kind neighbors of an agent — the
// direct candidate set used by the mutuality and net-profit experiments.
// The slice is a shared view into the trustee-filtered CSR adjacency and
// must not be modified.
func (p *Population) TrusteeNeighbors(id core.AgentID) []core.AgentID {
	return p.trusteeTo[p.trusteeOff[id]:p.trusteeOff[id+1]]
}

// Searcher builds a transitivity searcher over the population's frozen
// views. Any node may relay recommendations, but only trustee-role agents
// may become potential trustees, matching the paper's role split.
func (p *Population) Searcher(maxDepth int, omega1, omega2 float64) *core.Searcher {
	return &core.Searcher{
		Norm:          p.cfg.Update.Norm,
		MaxDepth:      maxDepth,
		Omega1:        omega1,
		Omega2:        omega2,
		CandidateMask: p.candMask,
	}
}

// Catalog returns the task catalog shared by every store of the population.
func (p *Population) Catalog() *task.Catalog { return p.cfg.Update.Catalog }

// CaptureSource exposes the population's stores to the trust-view capture
// (core.CaptureTrustView): the shared catalog, per-edge record counts for
// the sizing pass, in-place compact appends for the fill pass, and each
// store's mutation stamp for predecessor reuse.
func (p *Population) CaptureSource() core.CaptureSource {
	cat := p.Catalog()
	return core.CaptureSource{
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
	}
}

// RoundSource exposes the population's stores to a round-view capture: the
// trust-view record passes plus the per-edge usage logs behind the reverse
// evaluation.
func (p *Population) RoundSource() core.RoundSource {
	return core.RoundSource{
		CaptureSource: p.CaptureSource(),
		Usage: func(holder, about core.AgentID) core.UsageLog {
			return p.Agents[holder].Store.Usage(about)
		},
	}
}

// RoundView captures a frozen snapshot of everything a delegation round
// reads — per-edge experience records and usage counters — over a worker
// pool, drawing arenas from pool (workers <= 1 captures serially, a nil
// pool allocates fresh). Byte-identical at every worker count. The engine
// publishes one per round boundary through its EpochHandle. A population
// large enough to overflow the arena offset space panics with
// ErrArenaOverflow; RoundViewFrom returns it instead.
func (p *Population) RoundView(workers int, pool *core.ArenaPool) *core.RoundView {
	v, err := p.RoundViewFrom(nil, workers, pool)
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
