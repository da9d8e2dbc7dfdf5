package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"siot/internal/core"
	"siot/internal/par"
	"siot/internal/rng"
	"siot/internal/task"
)

// This file implements the parallel experience-seeding pipeline — the setup
// half of the transitivity experiments. Seeding follows the engine's
// determinism recipe: every node draws its capabilities, experienced tasks,
// and record holders from a private rng sub-stream keyed on (seed, label,
// node), workers accumulate the resulting records locally, and the records
// merge in ascending (holder, trustee, task) order before a bulk per-holder
// Store.SeedSorted ingest. No draw and no write depends on goroutine
// scheduling, so the seeded stores are bit-identical at every worker count
// (TestSeedParallelEquivalence).

// seedEntry is one experience record in the compact wire format of the
// merge phase: the universe task index stands in for the task (the
// universe lists tasks indexed by type) and the drawn record value s for
// the expectation {S: s, G: s, D: 1-s, C: 0}. Keeping the struct small and
// pointer-free matters — a 100k-node pass accumulates and sorts ~1M of
// these, and carrying full task.Task values here made the GC scan the
// buffers continuously.
type seedEntry struct {
	holder  core.AgentID
	trustee core.AgentID
	taskIdx int32
	s       float64
}

// seedEmit collects one experience record during the per-node compute
// phase: holder u remembers the node on universe task ti with record
// value s.
type seedEmit func(u core.AgentID, ti int, s float64)

// SeedExperience prepares the ground truth and experience records:
//
//   - every node gets a per-characteristic capability drawn uniformly from
//     [0, 1] (stored in its agent behavior);
//   - every node is assigned tasksPerNode experienced task types;
//   - every social neighbor receives an experience record about the node
//     for those tasks, with expectation tracking the node's true capability
//     up to recordNoise.
//
// All randomness derives from seed through per-node sub-streams, sharded
// over the population's configured worker pool; the result is bit-identical
// at every parallelism. It returns the per-node experienced task list for
// tests and reports.
func SeedExperience(p *Population, setup TransitivitySetup, seed uint64) [][]task.Task {
	return p.seedParallel(setup, seed, "seed-experience", func(a *agentSeedCtx) []task.Task {
		return seedNode(a, setup)
	})
}

// SeedExperienceFromFeatures is the Table 2 variant of SeedExperience:
// "some real-world node properties of the three social networks ...
// represent task characteristics". The node's profile features (from the
// network generator or loader) play the role of characteristics — a node is
// genuinely capable on featured characteristics and weak elsewhere, and its
// experienced tasks are drawn among universe tasks touching its features.
func SeedExperienceFromFeatures(p *Population, setup TransitivitySetup, seed uint64) [][]task.Task {
	feats := p.Net.Features
	return p.seedParallel(setup, seed, "seed-features", func(a *agentSeedCtx) []task.Task {
		return seedNodeFromFeatures(a, setup, feats)
	})
}

// agentSeedCtx is the per-node state a seeding function works with: the
// population (read-only: neighbors), the node, its private rng sub-stream,
// the record sink, and a holder scratch slice reused from node to node.
type agentSeedCtx struct {
	p       *Population
	node    int
	r       *rand.Rand
	emit    seedEmit
	holders []core.AgentID
}

// seedParallel runs the compute → merge seeding pipeline: perNode for every
// node on the worker pool (per-node sub-streams from seed and label,
// per-worker record buffers), then one globally ordered bulk ingest.
func (p *Population) seedParallel(setup TransitivitySetup, seed uint64, label string, perNode func(*agentSeedCtx) []task.Task) [][]task.Task {
	n := len(p.Agents)
	workers := p.setupWorkers()
	experienced := make([][]task.Task, n)
	streamLabel := label + ":" + p.Net.Profile.Name
	// Compute phase: per-node sub-streams, worker-local record buffers.
	// Each buffer starts at a quarter over its share of the expected record
	// count — every directed edge carries tasksPerNode records with
	// probability (1-unknownFrac)·recordDensity — so appends rarely regrow
	// it.
	bufs := make([][]seedEntry, workers)
	share := int(float64(len(p.adjTo))*tasksPerNode*(1-unknownFrac)*recordDensity) / workers * 5 / 4
	for w := range bufs {
		bufs[w] = make([]seedEntry, 0, share)
	}
	par.For(n, workers, func(w, lo, hi int) {
		buf := bufs[w]
		ctx := agentSeedCtx{p: p}
		ctx.emit = func(u core.AgentID, ti int, s float64) {
			buf = append(buf, seedEntry{holder: u, trustee: core.AgentID(ctx.node), taskIdx: int32(ti), s: s})
		}
		for node := lo; node < hi; node++ {
			ctx.node = node
			ctx.r = rng.Split(seed, streamLabel, node)
			experienced[node] = perNode(&ctx)
		}
		bufs[w] = buf
	})
	// Merge phase: one global ascending (holder, trustee, task) order. The
	// keys are unique — a node's experienced types are distinct and its
	// holders are distinct neighbors — so the order is total and the result
	// is independent of which worker produced which record. Universe tasks
	// are indexed by type, so ordering by task index is ordering by task
	// type, as SeedSorted requires.
	//
	// Holders are dense node IDs, so a counting sort replaces a global
	// comparison sort: count records per holder, prefix-sum into per-holder
	// spans, scatter, then sort each span (a handful of records) by
	// (trustee, task) in parallel.
	counts := make([]int32, n+1)
	for _, b := range bufs {
		for i := range b {
			counts[b[i].holder+1]++
		}
	}
	for u := 0; u < n; u++ {
		counts[u+1] += counts[u]
	}
	total := int(counts[n])
	all := make([]seedEntry, total)
	cursor := make([]int32, n)
	copy(cursor, counts[:n])
	for _, b := range bufs {
		for i := range b {
			c := &cursor[b[i].holder]
			all[*c] = b[i]
			*c++
		}
	}
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			span := all[counts[u]:counts[u+1]]
			if len(span) > 1 {
				slices.SortFunc(span, func(a, b seedEntry) int {
					if c := cmp.Compare(a.trustee, b.trustee); c != 0 {
						return c
					}
					return cmp.Compare(a.taskIdx, b.taskIdx)
				})
			}
		}
	})
	p.ingestSorted(all, counts, setup, workers)
	return experienced
}

// ingestSorted bulk-loads the globally sorted entries, one SeedSorted
// batch per holder span (all[counts[u]:counts[u+1]]), holders sharded over
// the worker pool (distinct holders own distinct stores, so the ingest is
// contention- and order-free). The full task values and expectations are
// materialized into a per-block scratch batch just before hand-off —
// SeedSorted copies, so one buffer serves every holder in the block.
func (p *Population) ingestSorted(all []seedEntry, counts []int32, setup TransitivitySetup, workers int) {
	n := len(counts) - 1
	par.For(n, workers, func(_, lo, hi int) {
		var batch []core.SeedRecord
		for u := lo; u < hi; u++ {
			span := all[counts[u]:counts[u+1]]
			if len(span) == 0 {
				continue
			}
			batch = batch[:0]
			for _, e := range span {
				batch = append(batch, core.SeedRecord{
					Trustee: e.trustee,
					Task:    setup.Universe.Tasks[e.taskIdx],
					Exp:     core.Expectation{S: e.s, G: e.s, D: 1 - e.s, C: 0},
				})
			}
			if err := p.Agents[u].Store.SeedSorted(batch); err != nil {
				// The merge phase sorted and deduplicated by construction;
				// a rejection here is a seeding-pipeline bug.
				panic(fmt.Sprintf("sim: bulk seed batch for holder %d rejected: %v", u, err))
			}
		}
	})
}

// holdersOf draws the record holders for one node: newcomers (unknownFrac)
// have none, otherwise a recordDensity fraction of the node's social
// neighbors carries direct experience with it. The slice is a.holders,
// valid until the next call.
func holdersOf(a *agentSeedCtx) []core.AgentID {
	a.holders = a.holders[:0]
	if a.r.Float64() >= unknownFrac {
		for _, u := range a.p.Neighbors(core.AgentID(a.node)) {
			if a.r.Float64() < recordDensity {
				a.holders = append(a.holders, u)
			}
		}
	}
	return a.holders
}

// emitExperience runs the shared tail of both seeding variants over the
// node's chosen task indices: having accomplished a task implies
// competence on its characteristics ("potential trustees who have
// accomplished tasks that contain ... the characteristics"), and each
// holder's record approaches the node's true capability up to recordNoise.
func emitExperience(a *agentSeedCtx, setup TransitivitySetup, types []int, holders []core.AgentID) []task.Task {
	ag := a.p.Agents[a.node]
	experienced := make([]task.Task, 0, len(types))
	for _, ti := range types {
		tk := setup.Universe.Tasks[ti]
		experienced = append(experienced, tk)
		for _, ch := range tk.Characteristics() {
			if ag.Behavior.Competence[ch] < 0.55 {
				ag.Behavior.Competence[ch] = 0.55 + float64(0.4*a.r.Float64())
			}
		}
		cap := ag.Behavior.TaskCompetence(tk)
		for _, u := range holders {
			a.emit(u, ti, clamp01(cap+float64(recordNoise*(2*float64(a.r.Float64())-1))))
		}
	}
	return experienced
}

// seedNode draws one node's ground truth and records (the standard
// variant): uniform per-characteristic capabilities, tasksPerNode
// experienced types, one record per (holder, experienced task).
func seedNode(a *agentSeedCtx, setup TransitivitySetup) []task.Task {
	ag := a.p.Agents[a.node]
	for c := 0; c < setup.Universe.NumCharacteristics; c++ {
		ag.Behavior.Competence[task.Characteristic(c)] = a.r.Float64()
	}
	types := a.r.Perm(len(setup.Universe.Tasks))[:tasksPerNode]
	return emitExperience(a, setup, types, holdersOf(a))
}

// seedNodeFromFeatures draws one node's ground truth and records for the
// Table 2 variant: featured characteristics are genuinely capable, the
// rest weak, and experienced tasks prefer types touching the features.
func seedNodeFromFeatures(a *agentSeedCtx, setup TransitivitySetup, feats [][]int) []task.Task {
	ag := a.p.Agents[a.node]
	have := map[task.Characteristic]bool{}
	if a.node < len(feats) {
		for _, f := range feats[a.node] {
			have[task.Characteristic(f)] = true
		}
	}
	for c := 0; c < setup.Universe.NumCharacteristics; c++ {
		ch := task.Characteristic(c)
		if have[ch] {
			ag.Behavior.Competence[ch] = 0.6 + float64(0.35*a.r.Float64())
		} else {
			ag.Behavior.Competence[ch] = 0.3 * a.r.Float64()
		}
	}
	// Prefer experienced tasks that touch the node's features.
	var preferred, rest []int
	for ti, tk := range setup.Universe.Tasks {
		touches := false
		for _, c := range tk.Characteristics() {
			if have[c] {
				touches = true
				break
			}
		}
		if touches {
			preferred = append(preferred, ti)
		} else {
			rest = append(rest, ti)
		}
	}
	a.r.Shuffle(len(preferred), func(i, j int) { preferred[i], preferred[j] = preferred[j], preferred[i] })
	a.r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	pick := append(append([]int(nil), preferred...), rest...)[:tasksPerNode]
	return emitExperience(a, setup, pick, holdersOf(a))
}
