package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// recipe is how a workload builds its world through the public layer
// functions. The sim workloads follow benchnet.Populate (simRecipe); the
// serve probe follows serve.New's own construction, so the probe world is
// the world the engine serves.
type recipe struct {
	profile  socialgen.Profile
	seed     uint64
	theta    float64
	workers  int                              // population build width; 0 = the population default
	universe func(*sim.Population) *rand.Rand // the stream that draws the task universe
	maxDepth int                              // 0 keeps the setup default
}

type world struct {
	pop   *sim.Population
	setup sim.TransitivitySetup
}

// layerStats collects the per-layer numbers every workload reports.
type layerStats struct {
	mu                         sync.Mutex
	generate, populate, seeded samples // ms
	capture, memo              samples // ms per epoch
	memoByModel                map[string]samples
	search                     hist
	searches, inquired, cands  int64
}

func newLayerStats() *layerStats {
	return &layerStats{memoByModel: make(map[string]samples)}
}

// report sets the per-layer metrics every workload shares.
func (ls *layerStats) report(res *result) {
	res.set("socialgen.generate_ms", ls.generate.quantile(0.5), "ms", len(ls.generate))
	res.set("sim.populate_ms", ls.populate.quantile(0.5), "ms", len(ls.populate))
	res.set("sim.seed_ms", ls.seeded.quantile(0.5), "ms", len(ls.seeded))
	res.set("core.capture_ms_p50", ls.capture.quantile(0.5), "ms", len(ls.capture))
	res.set("core.memo_ms_p50", ls.memo.quantile(0.5), "ms", len(ls.memo))
	for name, s := range ls.memoByModel {
		res.set("core.memo_ms_p50."+name, s.quantile(0.5), "ms", len(s))
	}
	n := int(ls.search.n)
	res.set("core.search_us_p50", ls.search.quantile(0.5)/1e3, "us", n)
	res.set("core.search_us_p99", ls.search.quantile(0.99)/1e3, "us", n)
	res.set("core.search_inquired_mean", float64(ls.inquired)/float64(max(ls.searches, 1)), "count", n)
	res.set("core.search_candidates_mean", float64(ls.cands)/float64(max(ls.searches, 1)), "count", n)
}

// build generates, populates and seeds a world, timing each layer into ls
// (when non-nil) and recording a span per layer on l.
func (r recipe) build(l *lane, ls *layerStats, parent int64) world {
	t0 := time.Now()
	net := socialgen.Generate(r.profile, r.seed)
	t1 := time.Now()
	pcfg := sim.DefaultPopulationConfig(r.seed)
	pcfg.Theta = r.theta
	pcfg.Parallelism = r.workers
	pop := sim.NewPopulation(net, pcfg)
	t2 := time.Now()
	setup := sim.DefaultTransitivitySetup(5, r.universe(pop))
	if r.maxDepth > 0 {
		setup.MaxDepth = r.maxDepth
	}
	sim.SeedExperience(pop, setup, r.seed)
	t3 := time.Now()
	l.add("socialgen.generate", parent, 0, t0, t1)
	l.add("sim.populate", parent, 0, t1, t2)
	l.add("sim.seed", parent, 0, t2, t3)
	if ls != nil {
		ls.generate = append(ls.generate, msSince(t0, t1))
		ls.populate = append(ls.populate, msSince(t1, t2))
		ls.seeded = append(ls.seeded, msSince(t2, t3))
	}
	return world{pop: pop, setup: setup}
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// sweepShard mirrors the shard width of sim's default sweep (Run/RunModel),
// so the decomposed sweep tops up the memo at the same cuts.
const sweepShard = 32 * 1024

// sweepDecomposed replays TransitivityEpoch.RunModel from outside the sim
// package, one public call at a time, so each layer gets its own span: the
// memo build (EdgeMemo.RequireModel), one Searcher.FindViewModelInto per
// trustor fanned out over the workers, and the ordered outcome merge. Tasks
// and outcomes come from the same streams in the same order as
// SweepShardedModel, so the returned stats must equal RunModel's on the
// same view — the traced workloads check exactly that.
func sweepDecomposed(w world, view *core.RoundView, memo *core.EdgeMemo, m core.TrustModel, seed uint64,
	workers int, l *lane, ls *layerStats, parent, req int64) sim.TransitivityStats {
	p := w.pop
	s := p.Searcher(w.setup.MaxDepth, w.setup.Omega1, w.setup.Omega2)
	taskRng := rng.New(seed, "transitivity-tasks", p.Net.Profile.Name)
	outcomeRng := rng.New(seed, "transitivity-outcomes", p.Net.Profile.Name, m.Name())
	type summary struct {
		cands, inquired int
		best            core.Candidate
		found           bool
	}
	var st sim.TransitivityStats
	st.InquiredPerTrustor = make([]int, 0, len(p.Trustors))
	var memoTime time.Duration
	lanes := make([]*lane, workers)
	hists := make([]*hist, workers)
	for i := range lanes {
		lanes[i] = l.sibling()
		hists[i] = new(hist)
	}
	for lo := 0; lo < len(p.Trustors); lo += sweepShard {
		ids := p.Trustors[lo:min(lo+sweepShard, len(p.Trustors))]
		tasks := make([]task.Task, len(ids))
		for i := range tasks {
			tasks[i] = w.setup.Universe.Random(taskRng)
		}
		t0 := time.Now()
		memo.RequireModel(m, tasks)
		t1 := time.Now()
		memoTime += t1.Sub(t0)
		l.add("core.memo", parent, req, t0, t1)

		out := make([]summary, len(ids))
		var next atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wl *lane, h *hist) {
				defer wg.Done()
				var res core.SearchResult
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					a := time.Now()
					s.FindViewModelInto(&res, view.TrustView, memo, ids[i], tasks[i], m)
					b := time.Now()
					h.add(b.Sub(a))
					wl.add("core.search", parent, req, a, b)
					sum := summary{cands: len(res.Candidates), inquired: res.Inquired}
					sum.best, sum.found = res.Best()
					out[i] = sum
				}
			}(lanes[wk], hists[wk])
		}
		wg.Wait()
		for i, r := range out {
			st.Requests++
			st.PotentialTrustees += r.cands
			st.InquiredPerTrustor = append(st.InquiredPerTrustor, r.inquired)
			if !r.found {
				st.Unavailable++
				continue
			}
			if outcomeRng.Float64() < p.Agent(r.best.ID).Behavior.TaskCompetence(tasks[i]) {
				st.Successes++
			}
		}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.memoByModel[m.Name()] = append(ls.memoByModel[m.Name()], float64(memoTime)/float64(time.Millisecond))
	for _, h := range hists {
		ls.search.merge(h)
	}
	ls.searches += int64(st.Requests)
	ls.cands += int64(st.PotentialTrustees)
	for _, n := range st.InquiredPerTrustor {
		ls.inquired += int64(n)
	}
	return st
}

// captureEpoch times one frozen-epoch capture through the public
// Population.RoundView.
func captureEpoch(w world, workers int, pool *core.ArenaPool, l *lane, ls *layerStats, parent, req int64) *core.RoundView {
	t0 := time.Now()
	view := w.pop.RoundView(workers, pool)
	t1 := time.Now()
	l.add("core.capture", parent, req, t0, t1)
	ls.capture = append(ls.capture, msSince(t0, t1))
	return view
}

// statsDigest renders transitivity stats compactly for comparisons and
// fingerprints; the inquired list enters as a hash.
func statsDigest(st sim.TransitivityStats) string {
	h := fnv.New64a()
	for _, n := range st.InquiredPerTrustor {
		fmt.Fprintf(h, "%d,", n)
	}
	return fmt.Sprintf("req=%d succ=%d unavail=%d cands=%d inq=%016x",
		st.Requests, st.Successes, st.Unavailable, st.PotentialTrustees, h.Sum64())
}
