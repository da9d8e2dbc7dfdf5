package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"siot/internal/adversary"
	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/rng"
	"siot/internal/task"
)

// Engine is the parallel delegation-round runner: it shards the trustors of
// a population across a worker pool and plays rounds with deterministic
// results.
//
// # Determinism contract
//
// Every engine round runs in two phases. The compute phase fans the
// trustors out over Parallelism goroutines; each trustor draws its
// randomness from a private sub-stream derived from the population seed,
// the engine label, the round index, and its own agent ID (rng.Split2), and
// only reads shared state. The merge phase then applies every trustor's
// buffered effects (store updates, usage logs, counters, energy drains)
// single-threaded in ascending trustor-ID order. Because no draw and no
// write depends on goroutine scheduling, the results are bit-identical for
// every Parallelism value, including 1 — P=1 and P=8 with the same seed
// produce the same bytes.
//
// The price is round semantics: within one round every trustor decides
// against the state left by the previous round (simultaneous requests) —
// which is precisely what lets the compute phase read a frozen snapshot.
// Each round publishes a core.RoundView of the previous round's state
// through the Rounds handle; the compute phase reads only that view (zero
// store locks — TestMutualityComputePhaseLockFree) and the merge phase is
// the only store writer.
type Engine struct {
	Pop *Population
	// Parallelism is the worker-pool width. 0 falls back to the population
	// config's Parallelism, then to GOMAXPROCS; 1 runs serially.
	Parallelism int
	// Label separates the engine's random streams from other phases run on
	// the same population (e.g. one label per figure).
	Label string
	// Rounds is the epoch seam of the mutuality rounds: every round
	// publishes its frozen snapshot here before the compute phase and
	// retires it after the merge. External readers (a serving layer, an
	// experiment probe) may Acquire the current epoch at any time and keep
	// reading it safely across the swap.
	Rounds EpochHandle

	initOnce     sync.Once
	trusteeNbrs  [][]core.AgentID // trustee-kind neighbors per trustor position
	trusteeEdges [][]int32        // CSR edge index per trustee neighbor, same shape as trusteeNbrs
	socialNbrs   [][]core.AgentID // all neighbors per trustor position (attack scenarios only)
}

// NewEngine returns an engine over the population using its configured
// parallelism.
func NewEngine(p *Population, label string) *Engine {
	return &Engine{Pop: p, Label: label}
}

// workers resolves the effective worker-pool width.
func (e *Engine) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	if e.Pop.cfg.Parallelism > 0 {
		return e.Pop.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// init precomputes the per-trustor neighbor lists so rounds do not
// re-derive (and re-allocate) them every time, plus the CSR edge index of
// every trustee neighbor — round views index records and usage by directed
// edge, and the graph is frozen, so the trustor→candidate edge of every
// candidate lookup is known once and for all. The full social-neighbor
// lists feed the recommendation channel, which only attack scenarios use.
func (e *Engine) init() {
	e.initOnce.Do(func() {
		p := e.Pop
		e.trusteeNbrs = make([][]core.AgentID, len(p.Trustors))
		e.trusteeEdges = make([][]int32, len(p.Trustors))
		for i, x := range p.Trustors {
			e.trusteeNbrs[i] = p.TrusteeNeighbors(x)
			edges := make([]int32, 0, len(e.trusteeNbrs[i]))
			for k, v := range p.adjTo[p.adjOff[x]:p.adjOff[x+1]] {
				if p.candMask[v] {
					edges = append(edges, p.adjOff[x]+int32(k))
				}
			}
			e.trusteeEdges[i] = edges
		}
		if p.AttackEnabled() {
			e.socialNbrs = make([][]core.AgentID, len(p.Trustors))
			for i, x := range p.Trustors {
				e.socialNbrs[i] = p.Neighbors(x)
			}
		}
	})
}

// mutualityLabel is the random-stream label of the engine's mutuality
// rounds; PerceivedTrust must derive the very same label so its attack
// context keys the same adversary sub-streams as the rounds themselves.
func (e *Engine) mutualityLabel() string {
	return "engine-mutuality:" + e.Label + ":" + e.Pop.Net.Profile.Name
}

// candidateTW scores candidate trustee y for the trustor at position i the
// way a mutuality round does: direct experience first (edge is the
// trustor→y edge in the view), the one-hop recommendation channel (attack
// scenarios only, with attackers forging) for strangers, the neutral prior
// when nobody knows anything. Reads only the frozen view.
func (e *Engine) candidateTW(view *core.RoundView, attacked bool, ctx adversary.Context, i int, edge int32, y core.AgentID, tk task.Task) float64 {
	tw, ok := view.BestTW(edge, tk)
	if ok {
		return tw
	}
	if attacked {
		if rec, ok := e.recommendedTW(view, ctx, e.socialNbrs[i], y, tk); ok {
			return rec
		}
	}
	return 0.5 // neutral prior before any experience
}

// acceptsDelegation is the reverse evaluation (eq. 1) of candidate trustee
// y against requesting trustor x on the frozen view: y compares the
// reverse trustworthiness implied by its captured usage log about x with
// its threshold θ. The agent.AcceptsDelegation live-store equivalent, for
// the compute phase. An absent y→x edge means an empty log (records and
// logs live only along social edges), which scores the optimistic 1.
func (e *Engine) acceptsDelegation(view *core.RoundView, y, x core.AgentID) bool {
	theta := e.Pop.Agent(y).Theta
	if theta <= 0 {
		return true
	}
	if edge, ok := view.EdgeIndex(y, x); ok {
		return view.ReverseTW(edge) >= theta
	}
	return (core.UsageLog{}).TW() >= theta
}

// mapTrustors computes fn for every trustor on a pool of workers and
// returns the results indexed by trustor position. fn must not mutate
// shared state; it may read it freely.
func mapTrustors[T any](ids []core.AgentID, workers int, fn func(i int, x core.AgentID) T) []T {
	return mapTrustorsInto[T](nil, ids, workers, fn)
}

// mapTrustorsInto is mapTrustors writing into a caller-provided result
// buffer (grown only when too small, so a shard loop reuses one allocation
// across shards). Indices passed to fn are positions within ids.
func mapTrustorsInto[T any](out []T, ids []core.AgentID, workers int, fn func(i int, x core.AgentID) T) []T {
	if cap(out) < len(ids) {
		out = make([]T, len(ids))
	}
	out = out[:len(ids)]
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for i, x := range ids {
			out[i] = fn(i, x)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				out[i] = fn(i, ids[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// mutualityAction is one trustor's buffered decision of a mutuality round.
type mutualityAction struct {
	requested bool
	accepted  bool
	trustee   core.AgentID
	out       core.Outcome
	abusive   bool
}

// MutualityRound plays one parallel round of the Fig. 7 experiment: every
// trustor simultaneously requests task tk from its best-trusted trustee
// neighbor, candidates reverse-evaluate the trustor against θ (eq. 1) on
// the state of the previous round, and all effects merge in ascending
// trustor-ID order. round indexes the random sub-streams and must advance
// every call.
//
// The round is the canonical epoch cycle: a core.RoundView of the previous
// round's state is captured and published through the Rounds handle, the
// compute phase fans out reading only that snapshot (no store locks), the
// single-threaded merge writes the stores, and the epoch retires — stale
// by construction once the merge ran. Readers holding an Acquire across
// the swap keep their snapshot alive; the arenas recycle through the
// shared epoch pool.
//
// When the population carries an attack scenario (PopulationConfig.Attack),
// three adversary hooks fire: trustors without direct experience of a
// candidate gather one-hop recommendations that attackers may forge (off
// the snapshot, inside the compute phase); a pre-merge pass lets active
// attackers sabotage the outcomes of the delegations they serve; and a
// post-merge pass lets whitewashing attackers shed their identity. With no
// attack configured every hook is skipped and the round is bit-identical
// to the pre-adversary engine.
func (e *Engine) MutualityRound(round int, tk task.Task, c *MutualityCounters) {
	e.init()
	p := e.Pop
	attacked := p.AttackEnabled()
	var actx adversary.Context
	if attacked {
		actx = e.attackContext(e.mutualityLabel(), round)
	}
	e.Rounds.Publish(p.RoundView(e.workers(), epochArenas))
	ep := e.Rounds.Acquire()
	acts := e.computeMutualityActs(ep.View(), attacked, actx, round, tk)
	ep.Release()
	if attacked {
		// Pre-merge hook: active attackers rewrite their buffered outcomes.
		e.applyAttack(actx, acts)
	}
	e.mergeMutualityActs(attacked, tk, acts, c)
	e.Rounds.Retire() // the merge wrote the stores; the epoch is stale
	if attacked {
		// Post-merge hook: whitewashing attackers shed their identity.
		e.applyChurn(actx)
	}
}

// computeMutualityActs is the round's parallel compute phase: every trustor
// decides against the frozen view — candidate scoring, reverse evaluation,
// outcome and abuse draws — and buffers its action. It reads no live store
// (TestMutualityComputePhaseLockFree pins this at zero lock acquisitions)
// and writes nothing shared, so any worker count produces identical bytes.
func (e *Engine) computeMutualityActs(view *core.RoundView, attacked bool, actx adversary.Context, round int, tk task.Task) []mutualityAction {
	p := e.Pop
	label := e.mutualityLabel()
	actCfg := agent.DefaultActConfig()
	return mapTrustors(p.Trustors, e.workers(), func(i int, x core.AgentID) mutualityAction {
		nbrs := e.trusteeNbrs[i]
		if len(nbrs) == 0 {
			return mutualityAction{} // socially isolated from trustees: not a request
		}
		r := rng.Split2(p.cfg.Seed, label, round, int(x))
		trustor := p.Agent(x)
		cands := make([]core.Candidate, 0, len(nbrs))
		for k, y := range nbrs {
			// Strangers are judged by one-hop recommendations, which
			// attackers may forge (candidateTW).
			cands = append(cands, core.Candidate{ID: y, TW: e.candidateTW(view, attacked, actx, i, e.trusteeEdges[i][k], y, tk)})
		}
		chosen, ok := core.SelectMutual(cands, func(y core.AgentID) bool {
			return e.acceptsDelegation(view, y, x)
		})
		if !ok {
			return mutualityAction{requested: true}
		}
		act := mutualityAction{requested: true, accepted: true, trustee: chosen.ID}
		act.out = p.Agent(chosen.ID).ActOutcome(tk, env.Perfect, actCfg, r)
		act.abusive = trustor.Behavior.UsesAbusively(r)
		return act
	})
}

// mergeMutualityActs is the round's single-threaded merge phase — the only
// store writer: buffered actions apply in ascending trustor-ID order
// (counters, trust updates, energy drains, usage logs).
func (e *Engine) mergeMutualityActs(attacked bool, tk task.Task, acts []mutualityAction, c *MutualityCounters) {
	p := e.Pop
	for i, x := range p.Trustors {
		a := acts[i]
		if !a.requested {
			continue
		}
		c.Requests++
		if !a.accepted {
			c.Unavailable++
			continue
		}
		if a.out.Success {
			c.Successes++
		}
		if attacked && p.attackers[a.trustee] {
			c.AttackerDelegations++
		}
		trustee := p.Agent(a.trustee)
		p.Agent(x).Store.Observe(a.trustee, tk, a.out, core.PerfectEnv())
		trustee.DrainEnergy(a.out.Cost)
		// The trustor now uses the granted resource; the trustee logs how.
		trustee.Store.ObserveUsage(x, a.abusive)
		c.Uses++
		if a.abusive {
			c.Abuses++
		}
	}
}

// netProfitAction is one trustor's buffered decision of a net-profit
// iteration.
type netProfitAction struct {
	active  bool
	trustee core.AgentID
	out     core.Outcome
	profit  float64
}

// NetProfitRun iterates continuous task delegations under the given
// strategy and returns the average realized net profit of the trustors at
// every iteration — one curve of Fig. 13. Each iteration's trustors are
// sharded over the worker pool. Trustee ground truths are drawn once per
// run, serially; trustor expectations start at the neutral prior and are
// updated with the store's forgetting factors after every delegation, so
// the curves show the learning dynamics of the two strategies. The
// per-delegation success draws come from per-(iteration, trustor)
// sub-streams, so the series is identical at every worker count.
func (e *Engine) NetProfitRun(iterations int, strategy Strategy, seed uint64) []float64 {
	e.init()
	p := e.Pop
	truths := drawTruths(p, rng.New(seed, "engine-netprofit", p.Net.Profile.Name, strategy.String()))
	label := "engine-netprofit:" + e.Label + ":" + p.Net.Profile.Name + ":" + strategy.String()
	tk := task.Uniform(0, task.CharCompute) // one generic task type
	series := make([]float64, iterations)
	workers := e.workers()

	for it := 0; it < iterations; it++ {
		acts := mapTrustors(p.Trustors, workers, func(i int, x core.AgentID) netProfitAction {
			nbrs := e.trusteeNbrs[i]
			if len(nbrs) == 0 {
				return netProfitAction{}
			}
			trustor := p.Agent(x)
			cands := make([]core.ExpCandidate, 0, len(nbrs))
			for _, y := range nbrs {
				rec, ok := trustor.Store.Record(y, tk.Type())
				exp := trustor.Store.Config().Init
				if ok {
					exp = rec.Exp
				}
				cands = append(cands, core.ExpCandidate{ID: y, Exp: exp})
			}
			var chosen core.ExpCandidate
			var ok bool
			if strategy == StrategySuccessRate {
				chosen, ok = core.BestBySuccessRate(cands)
			} else {
				chosen, ok = core.BestByNetProfit(cands)
			}
			if !ok {
				return netProfitAction{}
			}
			r := rng.Split2(seed, label, it, int(x))
			truth := truths[chosen.ID]
			success := r.Float64() < truth.S
			return netProfitAction{
				active: true, trustee: chosen.ID,
				out: truth.outcome(success), profit: truth.realizedProfit(success),
			}
		})
		var sum float64
		active := 0
		for i, x := range p.Trustors {
			a := acts[i]
			if !a.active {
				continue
			}
			sum += a.profit
			active++
			p.Agent(x).Store.Observe(a.trustee, tk, a.out, core.PerfectEnv())
		}
		if active > 0 {
			series[it] = sum / float64(active)
		}
	}
	return series
}

// TransitivityRunModel has every trustor issue one random task request
// resolved through the trust model. The trustor delegates to the candidate
// with the highest transferred trustworthiness; the delegation succeeds with
// probability equal to the trustee's true task capability. Only unilateral
// evaluation is used, matching the paper ("we only consider unilateral
// evaluation ... in order not to mix the performances of different
// features").
//
// The per-trustor task sequence is derived from seed independently of the
// model, so runs with the same seed compare the models on the same
// workload, as the paper's figures do. The searches — the dominant cost of
// the §5.5 experiments — are pure, so they shard over the worker pool with
// bit-identical results at every Parallelism. Each call captures a fresh
// frozen epoch; callers running several models over unchanged stores should
// capture one TransitivityEpoch and RunModel it repeatedly.
func (e *Engine) TransitivityRunModel(setup TransitivitySetup, m core.TrustModel, seed uint64) TransitivityStats {
	ep := e.TransitivityEpoch(setup)
	defer ep.Release()
	return ep.RunModel(m, seed)
}
