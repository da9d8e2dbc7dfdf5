package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

const (
	simLabel      = "benchmark"
	simCheckSteps = 3 // sim-rounds steps replayed at Parallelism 1
	sweepNodes    = 10_000
	sweepMaxDepth = 3
)

// simRecipe is benchnet.Populate over the given profile with the run's
// seed, except for the task universe, which always comes from the
// canonical benchmark seed: the universe's characteristics set how far an
// aggressive search fans out, and drawing it per seed moved a 100k sweep's
// work by up to 80% between seeds (±1.5% with it fixed). The network,
// roles, experience and every round and sweep draw still follow the seed.
func simRecipe(profile socialgen.Profile, seed uint64) recipe {
	return recipe{
		profile: profile, seed: seed, maxDepth: sweepMaxDepth,
		universe: func(*sim.Population) *rand.Rand { return rng.New(benchnet.Seed, "benchmark-universe") },
	}
}

// buildWorlds builds the world three times and keeps the last: setup_s is
// the median build. each, when non-nil, sees every world before the next
// build replaces it.
func buildWorlds(r recipe, cfg runConfig, res *result, ls *layerStats, each func(i int, w world)) world {
	var setups samples
	var w world
	l := cfg.tracer.lane()
	for i := 0; i < 3; i++ {
		w = world{}
		runtime.GC()
		sp := l.begin("benchmark.setup", 0, int64(i))
		t0 := time.Now()
		w = r.build(l, ls, sp.id)
		setups = append(setups, time.Since(t0).Seconds())
		l.end(sp)
		if each != nil {
			each(i, w)
		}
	}
	res.set("setup_s", setups.quantile(0.5), "s", len(setups))
	res.fingerprint("profile=%s nodes=%d edges=%d trustors=%d trustees=%d",
		r.profile.Name, r.profile.Nodes, r.profile.Edges, len(w.pop.Trustors), len(w.pop.Trustees))
	return w
}

// setBatchTimings reports a batch workload's end-to-end metrics from its
// per-op times (ms).
func setBatchTimings(res *result, ops samples, elapsed time.Duration, heapMB float64) {
	res.setTiming("latency", ops.quantile, len(ops), "ms")
	res.set("ops_per_s", float64(len(ops))/elapsed.Seconds(), "1/s", len(ops))
	if !math.IsNaN(heapMB) {
		res.set("heap_live_peak_mb", heapMB, "MB", 0)
	}
	res.set("serve.direct_share", 0, "ratio", 0)
	res.set("serve.journal_bytes_per_query", 0, "B", 0)
	res.set("serve.epochs", 0, "count", 0)
}

// timedLoop runs op until d has elapsed (at least once) and returns each
// op's time in ms.
func timedLoop(d time.Duration, op func(i int)) (samples, time.Duration) {
	var ops samples
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		op(i)
		ops = append(ops, msSince(t0, time.Now()))
	}
	return ops, time.Since(start)
}

// simStep is one sim-rounds step's deterministic outcome.
type simStep struct {
	round sim.MutualityCounters // cumulative after the step
	sweep string                // statsDigest of the step's sweep
}

// roundsRunner plays sim-rounds steps on one world: a delegation round
// (Engine.MutualityRound), then a fresh capture of the mutated stores and
// an aggressive sweep over it (TransitivityEpoch.Reset + RunModel).
type roundsRunner struct {
	w    world
	seed uint64
	eng  *sim.Engine
	ep   *sim.TransitivityEpoch
	mdl  core.TrustModel
	tk   task.Task
	c    sim.MutualityCounters
}

func newRoundsRunner(w world, seed uint64, parallelism int) (*roundsRunner, error) {
	mdl, err := core.ParseModel("aggressive")
	if err != nil {
		return nil, err
	}
	eng := &sim.Engine{Pop: w.pop, Parallelism: parallelism, Label: simLabel}
	return &roundsRunner{
		w: w, seed: seed, eng: eng, ep: eng.TransitivityEpoch(w.setup), mdl: mdl,
		tk: task.Uniform(1, task.CharCompute),
	}, nil
}

func (r *roundsRunner) step(i int) simStep {
	r.eng.MutualityRound(i, r.tk, &r.c)
	r.ep.Reset()
	st := r.ep.RunModel(r.mdl, r.seed+uint64(i))
	return simStep{round: r.c, sweep: statsDigest(st)}
}

// tracedStep is step with the sweep decomposed into its layer calls, each
// under its own span: capture, memo, per-trustor search, ordered merge.
func (r *roundsRunner) tracedStep(i int, l *lane, pool *core.ArenaPool, ls *layerStats) {
	root := l.begin("sim.step", 0, int64(i))
	sp := l.begin("sim.round", root.id, int64(i))
	r.eng.MutualityRound(i, r.tk, &r.c)
	l.end(sp)
	workers := runtime.GOMAXPROCS(0)
	sw := l.begin("sim.sweep", root.id, int64(i))
	view := captureEpoch(r.w, workers, pool, l, ls, sw.id, int64(i))
	memo := core.NewEdgeMemoPooled(view.TrustView, r.w.pop.Config().Update.Norm, workers, pool)
	sweepDecomposed(r.w, view, memo, r.mdl, r.seed+uint64(i), workers, l, ls, sw.id, int64(i))
	memo.Release()
	view.Release()
	l.end(sw)
	l.end(root)
	ls.memo = append(ls.memo, ls.memoByModel[r.mdl.Name()][len(ls.memoByModel[r.mdl.Name()])-1])
}

func runSimRounds(cfg runConfig, res *result) error {
	profile := benchnet.Net100k()
	if cfg.short {
		profile = benchnet.Profile(1000)
	}
	ls := newLayerStats()
	// The first world also replays simCheckSteps steps serially: the timed
	// run at GOMAXPROCS width must reproduce their counters exactly.
	var ref []simStep
	var refErr error
	w := buildWorlds(simRecipe(profile, cfg.seed), cfg, res, ls, func(i int, w world) {
		if i != 0 {
			return
		}
		r, err := newRoundsRunner(w, cfg.seed, 1)
		if err != nil {
			refErr = err
			return
		}
		for s := 0; s < simCheckSteps; s++ {
			ref = append(ref, r.step(s))
		}
		r.ep.Release()
	})
	if refErr != nil {
		return refErr
	}
	r, err := newRoundsRunner(w, cfg.seed, 0)
	if err != nil {
		return err
	}
	defer r.ep.Release()
	res.fingerprint("steps: round=MutualityRound(task 1/compute) sweep=Reset+RunModel(aggressive) check_steps=%d", simCheckSteps)
	for _, s := range ref {
		res.fingerprint("step %+v %s", s.round, s.sweep)
	}

	var got []simStep
	untraced := cfg.measure
	if cfg.tracer != nil {
		untraced /= 2
	}
	var hs *heapSampler
	if cfg.tracer == nil {
		hs = startHeapSampler()
	}
	steps, elapsed := timedLoop(untraced, func(i int) {
		s := r.step(i)
		if i < simCheckSteps {
			got = append(got, s)
		}
	})
	for len(got) < simCheckSteps {
		got = append(got, r.step(len(got)))
	}
	heapMB := math.NaN()
	if hs != nil {
		heapMB = hs.stopMB()
	}
	mismatch := 0
	for i := range ref {
		if ref[i] != got[i] {
			mismatch++
		}
	}
	res.check("serial-replay", mismatch == 0, "%d of %d steps at parallelism 1 match the timed run's counters (e.g. step 0: %+v %s)",
		simCheckSteps-mismatch, simCheckSteps, ref[0].round, ref[0].sweep)
	res.Attempted = len(steps)
	setBatchTimings(res, steps, elapsed, heapMB)

	if cfg.tracer != nil {
		l := cfg.tracer.lane()
		pool := core.NewArenaPool()
		next := max(len(steps), simCheckSteps)
		traced, _ := timedLoop(cfg.measure-untraced, func(i int) {
			r.tracedStep(next+i, l, pool, ls)
		})
		res.set("benchmark.trace_overhead_pct", 100*(traced.quantile(0.5)/steps.quantile(0.5)-1), "%", 0)
		ls.report(res)
	}
	return nil
}

// sweepPass is one sweep-models pass's per-model stats digests.
type sweepPass map[string]string

func runSweepModels(cfg runConfig, res *result) error {
	nodes := sweepNodes
	if cfg.short {
		nodes = 1000
	}
	ls := newLayerStats()
	w := buildWorlds(simRecipe(benchnet.Profile(nodes), cfg.seed), cfg, res, ls, nil)
	names := core.ModelNames()
	models := make([]core.TrustModel, len(names))
	for i, n := range names {
		m, err := core.ParseModel(n)
		if err != nil {
			return err
		}
		models[i] = m
	}
	eng := &sim.Engine{Pop: w.pop, Label: simLabel}
	pass := func() sweepPass {
		ep := eng.TransitivityEpoch(w.setup)
		defer ep.Release()
		out := make(sweepPass, len(models))
		for _, m := range models {
			out[m.Name()] = statsDigest(ep.RunModel(m, cfg.seed))
		}
		return out
	}
	res.fingerprint("pass: TransitivityEpoch + RunModel(%v) + Release", names)

	var first sweepPass
	mismatch := 0
	untraced := cfg.measure
	if cfg.tracer != nil {
		untraced /= 2
	}
	var hs *heapSampler
	if cfg.tracer == nil {
		hs = startHeapSampler()
	}
	passes, elapsed := timedLoop(untraced, func(i int) {
		got := pass()
		if first == nil {
			first = got
			return
		}
		for n, d := range got {
			if first[n] != d {
				mismatch++
			}
		}
	})
	heapMB := math.NaN()
	if hs != nil {
		heapMB = hs.stopMB()
	}
	for _, n := range names {
		res.fingerprint("%s %s", n, first[n])
	}
	res.check("passes-repeat", mismatch == 0, "%d of %d passes reproduced pass 1's stats for all %d models",
		len(passes)-min(mismatch, len(passes)), len(passes), len(names))
	res.Attempted = len(passes)
	setBatchTimings(res, passes, elapsed, heapMB)

	if cfg.tracer != nil {
		l := cfg.tracer.lane()
		pool := core.NewArenaPool()
		workers := runtime.GOMAXPROCS(0)
		bad := 0
		var example string
		traced, _ := timedLoop(cfg.measure-untraced, func(i int) {
			root := l.begin("sim.pass", 0, int64(i))
			view := captureEpoch(w, workers, pool, l, ls, root.id, int64(i))
			memo := core.NewEdgeMemoPooled(view.TrustView, w.pop.Config().Update.Norm, workers, pool)
			var memoTotal float64
			for _, m := range models {
				sp := l.begin("sim.sweep", root.id, int64(i))
				st := sweepDecomposed(w, view, memo, m, cfg.seed, workers, l, ls, sp.id, int64(i))
				l.end(sp)
				byModel := ls.memoByModel[m.Name()]
				memoTotal += byModel[len(byModel)-1]
				if d := statsDigest(st); d != first[m.Name()] {
					bad++
					example = fmt.Sprintf("%s: %s vs RunModel %s", m.Name(), d, first[m.Name()])
				}
			}
			ls.memo = append(ls.memo, memoTotal)
			memo.Release()
			view.Release()
			l.end(root)
		})
		res.check("traced-breakdown", bad == 0,
			"%d traced passes: capture + memo + per-trustor search reproduce RunModel's requests, candidates, successes and inquiries for every model %s",
			len(traced), example)
		res.set("benchmark.trace_overhead_pct", 100*(traced.quantile(0.5)/passes.quantile(0.5)-1), "%", 0)
		ls.report(res)
	}
	return nil
}
