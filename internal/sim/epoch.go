package sim

import (
	"siot/internal/core"
	"siot/internal/par"
	"siot/internal/rng"
	"siot/internal/task"
)

// epochLink is one link of a population's epoch chain: a round view of the
// stores and the number of holders still reading it. The population holds
// its head link; every round, probe and TransitivityEpoch holds the link
// it reads for as long as it reads it. The view's arenas go back to the
// population's pool when the last holder lets go, so each view is released
// exactly once. One goroutine drives a population, so the count needs no
// lock.
type epochLink struct {
	view    *core.RoundView
	holders int
}

// release drops one hold on the link, releasing its view with the last.
func (l *epochLink) release() {
	l.holders--
	if l.holders == 0 {
		l.view.Release()
	}
}

// acquireEpoch returns a held link of the population's epoch chain that
// freezes the stores as they are now: the head itself when no store
// changed since the head was captured, else a new head that copies the old
// head's clean rows and rereads only the rows written since
// (RoundViewFrom). The population then lets go of the old head, whose
// arenas outlive it only as long as other holders do. Every consumer of
// the stores reads through here, so a round that follows a Reset or a
// probe captures nothing, and a Reset after a round pays only for the rows
// the round wrote. The caller releases its hold when done.
func (p *Population) acquireEpoch(workers int) *epochLink {
	p.recaptured = 0
	if p.head == nil || !p.head.view.Current(p.RoundSource()) {
		var prev *core.RoundView
		if p.head != nil {
			prev = p.head.view
		}
		next := &epochLink{view: mustCapture(p.RoundViewFrom(prev, workers, p.arenas)), holders: 1}
		if p.head != nil {
			p.head.release()
		}
		p.head = next
		p.recaptured = next.view.RowsRecaptured()
	}
	p.head.holders++
	return p.head
}

// RowsRecaptured returns how many store rows the population's last epoch
// capture — a round's, a probe's, or a TransitivityEpoch build's or
// Reset's — read from the live stores. It is 0 when no store changed since
// the capture before, which the request then shares.
func (p *Population) RowsRecaptured() int { return p.recaptured }

// TransitivityEpoch is one frozen-epoch read context for transitivity
// sweeps: a link of the population's epoch chain plus an EdgeMemo of
// per-edge hop values, shared by every search run against it. The epoch
// holds its link until Reset moves it on or Release lets go, after which
// the epoch is dead.
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
	link    *epochLink // nil once released
	memo    *core.EdgeMemo
	workers int
}

// TransitivityEpoch takes the population's current epoch for a sweep under
// the given setup.
func (e *Engine) TransitivityEpoch(setup TransitivitySetup) *TransitivityEpoch {
	p, workers := e.Pop, e.workers()
	ep := &TransitivityEpoch{
		p:       p,
		setup:   setup,
		s:       p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2),
		workers: workers,
		link:    p.acquireEpoch(workers),
	}
	ep.memo = core.NewEdgeMemoPooled(ep.link.view.TrustView, p.cfg.Update.Norm, workers, p.arenas)
	return ep
}

// Reset moves the epoch to the population's current stores: it takes the
// chain's current link — the same one when nothing was written, else one
// that recaptured only the dirty rows — and lets go of the old one. The
// memo refreshes its tables in the move, re-evaluating only their dirty
// rows (EdgeMemo.Reset); a trainable model retrains on the whole epoch at
// the next RunModel. At steady state a round–Reset–sweep loop allocates
// nothing new. Use after the stores mutated (a mutuality round, a seeding
// pass).
func (ep *TransitivityEpoch) Reset() {
	stale := ep.live("Reset")
	ep.link = ep.p.acquireEpoch(ep.workers)
	ep.memo.Reset(ep.link.view.TrustView) // reads stale's stamps: release after
	stale.release()
}

// Release returns the memo tables to the population's pool and lets go of
// the epoch's link (its view's arenas follow once no round, probe or other
// epoch holds it). When the link is still the chain's head, the population
// lets go of it as well: a released epoch ends a sweep, and its arenas go
// back to the pool now instead of staying with a population that may never
// capture again; the next capture request then reads every row. The epoch
// is dead afterwards: RunModel, Reset and a second Release panic rather
// than read or free arenas a newer capture may already use. Callers that
// let an epoch go out of scope without Release merely forgo reuse;
// correctness is unaffected.
func (ep *TransitivityEpoch) Release() {
	link := ep.live("Release")
	ep.memo.Release()
	link.release()
	if ep.p.head == link {
		ep.p.head = nil
		link.release()
	}
	ep.link = nil
}

// live returns the epoch's link, panicking with op's name once the epoch
// is released.
func (ep *TransitivityEpoch) live(op string) *epochLink {
	if ep.link == nil {
		panic("sim: " + op + " on a released TransitivityEpoch")
	}
	return ep.link
}

// findSummary is the per-trustor digest a transitivity run keeps: the full
// candidate list lives only in the worker's reused SearchResult, so the
// sweep allocates nothing per search after warmup.
type findSummary struct {
	candidates int
	inquired   int
	best       core.Candidate
	found      bool
}

// RunModel plays one transitivity run of the model over the frozen epoch in
// one pass: it draws every trustor's task from one stream in ascending
// trustor order, tops up the memo for those tasks (tables the epoch holds
// are reused; a trainable model trains once per epoch), fans the searches
// out over the workers, each reusing one SearchResult, and merges the
// outcomes in ascending trustor order — bit-identical statistics at every
// worker count (TestSweepWorkerEquivalence). Safe to call repeatedly across
// models and seeds; not safe concurrently with itself.
//
// The outcome stream is keyed by the model's name — for the paper's three
// models that name is the historical policy string, so every golden byte's
// draw sequence is preserved; a new model gets its own independent stream
// by construction.
func (ep *TransitivityEpoch) RunModel(m core.TrustModel, seed uint64) TransitivityStats {
	p := ep.p
	view := ep.live("RunModel").view.TrustView
	taskRng := rng.New(seed, "transitivity-tasks", p.Net.Profile.Name)
	outcomeRng := rng.New(seed, "transitivity-outcomes", p.Net.Profile.Name, m.Name())
	ids := p.Trustors
	tasks := make([]task.Task, len(ids))
	for i := range tasks {
		tasks[i] = ep.setup.Universe.Random(taskRng)
	}
	ep.memo.RequireModel(m, tasks) // every hop value the searches read
	sums := make([]findSummary, len(ids))
	scratch := make([]core.SearchResult, max(min(ep.workers, len(ids)), 1))
	par.For(len(ids), ep.workers, func(w, lo, hi int) {
		res := &scratch[w]
		for i := lo; i < hi; i++ {
			// Cannot fail: RequireModel just covered every task over view.
			if err := ep.s.FindViewModelInto(res, view, ep.memo, ids[i], tasks[i], m); err != nil {
				panic(err)
			}
			sums[i] = findSummary{candidates: len(res.Candidates), inquired: res.Inquired}
			sums[i].best, sums[i].found = res.Best()
		}
	})
	st := TransitivityStats{Requests: len(ids), InquiredPerTrustor: make([]int, len(ids))}
	for i, sum := range sums {
		st.PotentialTrustees += sum.candidates
		st.InquiredPerTrustor[i] = sum.inquired
		if !sum.found {
			st.Unavailable++
			continue
		}
		capability := p.Agent(sum.best.ID).Behavior.TaskCompetence(tasks[i])
		if outcomeRng.Float64() < capability {
			st.Successes++
		}
	}
	return st
}
