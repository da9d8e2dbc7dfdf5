package sim

import (
	"siot/internal/adversary"
	"siot/internal/core"
	"siot/internal/env"
	"siot/internal/par"
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
// buffered effects (store updates, usage logs, counters)
// single-threaded in ascending trustor-ID order. Because no draw and no
// write depends on goroutine scheduling, the results are bit-identical for
// every Parallelism value, including 1 — P=1 and P=8 with the same seed
// produce the same bytes. The net-profit loop (netProfitLoop) moves the
// draws into its merge instead, which keeps a single stream's order too.
//
// The price is round semantics: within one round every trustor decides
// against the state left by the previous round (simultaneous requests) —
// which is precisely what lets the compute phase read a frozen snapshot.
// Each round reads a core.RoundView of the previous round's state from the
// population's epoch chain; the compute phase reads only that view (no
// live store — TestMutualityComputePhaseLockFree runs it with every store
// detached) and the merge phase is the only store writer.
type Engine struct {
	Pop *Population
	// Parallelism is the worker-pool width. 0 falls back to the population
	// config's Parallelism, then to GOMAXPROCS; 1 runs serially.
	Parallelism int
	// Label separates the engine's random streams from other phases run on
	// the same population (e.g. one label per figure).
	Label string
}

// NewEngine returns an engine over the population using its configured
// parallelism.
func NewEngine(p *Population, label string) *Engine {
	return &Engine{Pop: p, Label: label}
}

// workers resolves the effective worker-pool width: Parallelism when set,
// otherwise the population's setup rule.
func (e *Engine) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return e.Pop.setupWorkers()
}

// mutualityLabel is the random-stream label of the engine's mutuality
// rounds. attackContext derives the adversary label from it, so the trust
// probes key the same adversary sub-streams as the rounds themselves.
func (e *Engine) mutualityLabel() string {
	return "engine-mutuality:" + e.Label + ":" + e.Pop.Net.Profile.Name
}

// acceptsDelegation is the reverse evaluation (eq. 1) of candidate trustee
// y against requesting trustor x on the frozen view: y compares the
// reverse trustworthiness implied by its captured usage log about x with
// its threshold θ. An absent y→x edge means an empty log (records and
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

// mapTrustors computes fn for every trustor on up to workers goroutines
// and returns the results indexed by position within ids. fn must not
// mutate shared state; it may read it freely.
func mapTrustors[T any](ids []core.AgentID, workers int, fn func(x core.AgentID) T) []T {
	out := make([]T, len(ids))
	par.For(len(ids), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(ids[i])
		}
	})
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
// The round is the canonical epoch cycle: it takes the population's
// current epoch — a core.RoundView of the previous round's state, shared
// with the Reset or probe that captured it when no store changed since —
// the compute phase fans out reading only that snapshot (no store locks),
// the round lets go of its hold, and the single-threaded merge writes the
// stores, which the next capture request then rereads row by row.
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
	p := e.Pop
	actx, attacked := e.attackContext(round)
	link := p.acquireEpoch(e.workers())
	acts := e.computeMutualityActs(link.view, attacked, actx, round, tk)
	link.release()
	if attacked {
		// Pre-merge hook: active attackers rewrite their buffered outcomes.
		e.applyAttack(actx, acts)
	}
	e.mergeMutualityActs(attacked, tk, acts, c)
	if attacked {
		// Post-merge hook: whitewashing attackers shed their identity.
		e.applyChurn(actx)
	}
}

// computeMutualityActs is the round's parallel compute phase: every trustor
// decides against the frozen view — candidate scoring, reverse evaluation,
// outcome and abuse draws — and buffers its action. It reads no live store
// (TestMutualityComputePhaseLockFree runs it with every store detached)
// and writes nothing shared, so any worker count produces identical bytes.
func (e *Engine) computeMutualityActs(view *core.RoundView, attacked bool, actx adversary.Context, round int, tk task.Task) []mutualityAction {
	p := e.Pop
	label := e.mutualityLabel()
	lenses := []edgeTW{func(e int32) (float64, bool) { return view.BestTW(e, tk) }}
	return mapTrustors(p.Trustors, e.workers(), func(x core.AgentID) mutualityAction {
		row := p.candidates(x)
		if len(row) == 0 {
			return mutualityAction{} // socially isolated from trustees: not a request
		}
		cands := make([]core.Candidate, len(row))
		tw, n := make([]float64, 1), make([]int, 1)
		for i, c := range row {
			// Strangers are judged by one-hop recommendations, which
			// attackers may forge (scoreCandidate).
			e.scoreCandidate(view, lenses, attacked, actx, x, c, tw, n)
			cands[i] = core.Candidate{ID: c.ID, TW: tw[0]}
		}
		r := rng.Split2(p.cfg.Seed, label, round, int(x))
		trustor := p.Agent(x)
		chosen, ok := core.SelectMutual(cands, func(y core.AgentID) bool {
			return e.acceptsDelegation(view, y, x)
		})
		if !ok {
			return mutualityAction{requested: true}
		}
		act := mutualityAction{requested: true, accepted: true, trustee: chosen.ID}
		act.out = p.Agent(chosen.ID).Act(tk, env.Perfect, r)
		act.abusive = trustor.Behavior.UsesAbusively(r)
		return act
	})
}

// mergeMutualityActs is the round's single-threaded merge phase — the only
// store writer: buffered actions apply in ascending trustor-ID order
// (counters, trust updates, usage logs).
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
		p.Agent(x).Store.Observe(a.trustee, tk, a.out, core.PerfectEnv())
		// The trustor now uses the granted resource; the trustee logs how.
		p.Agent(a.trustee).Store.ObserveUsage(x, a.abusive)
		c.Uses++
		if a.abusive {
			c.Abuses++
		}
	}
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
// bit-identical results at every Parallelism. Each call takes the
// population's current epoch (capturing only when the stores changed) and
// builds a fresh memo over it; callers running several models over
// unchanged stores should take one TransitivityEpoch and RunModel it
// repeatedly, so the memo tables carry over.
func (e *Engine) TransitivityRunModel(setup TransitivitySetup, m core.TrustModel, seed uint64) TransitivityStats {
	ep := e.TransitivityEpoch(setup)
	defer ep.Release()
	return ep.RunModel(m, seed)
}
