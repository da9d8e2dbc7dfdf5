package sim

import (
	"sync"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// TransitivityEpoch is one frozen-epoch read context for transitivity
// sweeps: a round view captured from the population's live stores plus an
// EdgeMemo of per-edge hop values, shared by every search run against it.
// The epoch owns its view outright; Release hands it back to the shared
// arena pool, after which the epoch is dead.
//
// The search phase of a transitivity run is pure — no store is written — so
// a single capture serves any number of RunModel calls across models and
// seeds, and the memo tables built for one run are reused by the next. The
// epoch goes stale as soon as the stores mutate (a mutuality round, a
// seeding pass, identity churn); Reset it after any such phase.
type TransitivityEpoch struct {
	p       *Population
	setup   TransitivitySetup
	s       *core.Searcher
	view    *core.RoundView // nil once released
	memo    *core.EdgeMemo
	workers int
}

// epochArenas recycles trust-view arenas and memo tables across every
// epoch in the process: repeated sweeps (benchmark repetitions, experiment
// repeats, per-call Engine.TransitivityRunModel captures) reuse the same
// backing memory instead of re-allocating ~2.3 MB per epoch at 1k nodes
// (~23 MB at 10k, 10x that at 100k).
var epochArenas = core.NewArenaPool()

// TransitivityEpoch captures the engine population's stores for a sweep
// under the given setup.
func (e *Engine) TransitivityEpoch(setup TransitivitySetup) *TransitivityEpoch {
	p, workers := e.Pop, e.workers()
	ep := &TransitivityEpoch{
		p:       p,
		setup:   setup,
		s:       p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2),
		workers: workers,
	}
	ep.view = p.RoundView(workers, epochArenas)
	ep.memo = core.NewEdgeMemoPooled(ep.view.TrustView, p.cfg.Update.Norm, workers, epochArenas)
	return ep
}

// Reset re-captures the epoch from the population's current stores: a
// fresh capture replaces the stale view, whose arenas go back to the pool,
// and the memo rebinds to it — so a repeated capture–sweep loop allocates
// nothing new at steady state. Use after the stores mutated (a mutuality
// round, a seeding pass); the memo refills lazily on the next RunModel.
func (ep *TransitivityEpoch) Reset() {
	stale := ep.live("Reset")
	ep.view = ep.p.RoundView(ep.workers, epochArenas)
	stale.Release()
	ep.memo.Reset(ep.view.TrustView)
}

// Release returns the view's arenas and the memo tables to the shared
// pool. The epoch is dead afterwards: RunModel, Reset and a second Release
// panic rather than read or free arenas a newer capture may already use.
// Callers that let an epoch go out of scope without Release merely forgo
// reuse; correctness is unaffected.
func (ep *TransitivityEpoch) Release() {
	view := ep.live("Release")
	ep.memo.Release()
	view.Release()
	ep.view = nil
}

// live returns the epoch's view, panicking with op's name once the epoch
// is released.
func (ep *TransitivityEpoch) live(op string) *core.RoundView {
	if ep.view == nil {
		panic("sim: " + op + " on a released TransitivityEpoch")
	}
	return ep.view
}

// findSummary is the per-trustor digest a transitivity run keeps: the full
// candidate list dies with the pooled SearchResult, so the sweep allocates
// nothing per search after warmup.
type findSummary struct {
	candidates int
	inquired   int
	best       core.Candidate
	found      bool
}

var resultPool = sync.Pool{New: func() any { return new(core.SearchResult) }}

// defaultSweepShard is the trustor-shard width of RunModel: large enough
// that the per-shard RequireModel and merge overheads vanish, small enough
// that the per-trustor scratch alive at any instant (task slice, result
// summaries, pooled search states) stays bounded no matter how many
// trustors the population has. At 1M nodes a monolithic sweep materializes ~400k task
// values and summaries at once; a 32k shard keeps the working set at a few
// MB without touching the output.
const defaultSweepShard = 32 * 1024

// RunModel plays one transitivity run of the model over the frozen epoch,
// with hop values served from the memo tables. Safe to call repeatedly
// across models and seeds (the memo fills lazily per model and task set);
// not safe concurrently with itself.
func (ep *TransitivityEpoch) RunModel(m core.TrustModel, seed uint64) TransitivityStats {
	return ep.SweepShardedModel(m, seed, defaultSweepShard)
}

// SweepShardedModel is RunModel processing the trustors in consecutive
// shards of the given width (<= 0 means one shard): per shard it draws the
// trustors' tasks, tops up the memo, fans the searches out over the worker
// pool, and merges the shard's stats — so only one shard's scratch is ever
// materialized, streaming a million-trustor sweep through a bounded working
// set.
//
// Sharding is invisible in the output — bit-identical statistics at every
// shard width and worker count. The recipe: tasks are drawn from one
// continuing stream in ascending trustor order regardless of shard cuts;
// per-shard memo top-ups only add tables (memoized hops are bit-identical
// to per-edge evaluation, so table timing cannot show through); and the
// merge consumes the outcome stream in the same ascending trustor order as
// the monolithic loop (TestSweepShardedEquivalence pins all of this).
//
// The outcome stream is keyed by the model's name — for the paper's three
// models that name is the historical policy string, so every golden byte's
// draw sequence is preserved; a new model gets its own independent stream
// by construction.
func (ep *TransitivityEpoch) SweepShardedModel(m core.TrustModel, seed uint64, shard int) TransitivityStats {
	p := ep.p
	if shard <= 0 {
		shard = len(p.Trustors)
	}
	taskRng := rng.New(seed, "transitivity-tasks", p.Net.Profile.Name)
	outcomeRng := rng.New(seed, "transitivity-outcomes", p.Net.Profile.Name, m.Name())
	view := ep.live("RunModel").TrustView
	var st TransitivityStats
	st.InquiredPerTrustor = make([]int, 0, len(p.Trustors))
	var tasks []task.Task
	var results []findSummary
	for lo := 0; lo < len(p.Trustors); lo += shard {
		hi := min(lo+shard, len(p.Trustors))
		ids := p.Trustors[lo:hi]
		if cap(tasks) < len(ids) {
			tasks = make([]task.Task, len(ids))
		}
		tasks = tasks[:len(ids)]
		for i := range tasks {
			tasks[i] = ep.setup.Universe.Random(taskRng)
		}
		// Pre-pass: memoize every per-edge hop value this shard's searches
		// will read, in parallel over the CSR edge array, before the
		// read-only fan-out. Tables built for earlier shards are reused
		// (and trainable models train once, on the first shard).
		ep.memo.RequireModel(m, tasks)
		results = mapTrustorsInto(results, ids, ep.workers, func(i int, x core.AgentID) findSummary {
			res := resultPool.Get().(*core.SearchResult)
			ep.s.FindViewModelInto(res, view, ep.memo, x, tasks[i], m)
			sum := findSummary{candidates: len(res.Candidates), inquired: res.Inquired}
			sum.best, sum.found = res.Best()
			resultPool.Put(res)
			return sum
		})
		for i := range ids {
			res := results[i]
			st.Requests++
			st.PotentialTrustees += res.candidates
			st.InquiredPerTrustor = append(st.InquiredPerTrustor, res.inquired)
			if !res.found {
				st.Unavailable++
				continue
			}
			capability := p.Agent(res.best.ID).Behavior.TaskCompetence(tasks[i])
			if outcomeRng.Float64() < capability {
				st.Successes++
			}
		}
	}
	return st
}
