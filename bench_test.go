// Benchmarks of the engine's layers and of the paper's evaluation (§5).
// Each table or figure benchmark runs its experiment at a
// reduced-but-faithful scale per iteration and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` doubles as
// a smoke reproduction. Figs. 7 and 9–12 have none here: their goldens
// (internal/experiments) pin the numbers, and the sim-rounds and
// sweep-models workloads of benchmark/ time the same paths. The full-scale
// runs (paper parameters) live in cmd/siot-bench.
package siot_test

import (
	"os"
	"testing"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/experiments"
	"siot/internal/serve"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/stats"
	"siot/internal/task"
)

const benchSeed = benchnet.Seed

// benchRounds plays one full delegation round per iteration — a mutuality
// round plus a transitivity search sweep — at the given worker-pool width
// and node count.
func benchRounds(b *testing.B, nodes, workers int) {
	p, setup := benchnet.Population(nodes)
	eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "bench"}
	tk := task.Uniform(1, task.CharCompute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c sim.MutualityCounters
		eng.MutualityRound(i, tk, &c)
		eng.TransitivityRunModel(setup, core.Aggressive, benchSeed)
	}
}

// BenchmarkRoundsSerial is the single-goroutine baseline of the delegation
// round engine on a 1k-node network.
func BenchmarkRoundsSerial(b *testing.B) { benchRounds(b, 1000, 1) }

// BenchmarkRoundsParallel runs the same rounds with a 4-worker pool. The
// outputs are bit-identical to the serial baseline (see sim.Engine); on a
// machine with >= 4 cores the wall-clock time should drop by >= 2x.
func BenchmarkRoundsParallel(b *testing.B) { benchRounds(b, 1000, 4) }

// benchTransitivity isolates the transitivity portion of a round — one
// frozen-epoch capture, memo pre-pass, and full per-trustor aggressive
// sweep — at the given scale.
func benchTransitivity(b *testing.B, nodes, workers int) {
	p, setup := benchnet.Population(nodes)
	eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.TransitivityRunModel(setup, core.Aggressive, benchSeed)
	}
}

// BenchmarkTransitivitySerial is the transitivity portion of
// BenchmarkRoundsSerial in isolation (1k nodes, aggressive policy).
func BenchmarkTransitivitySerial(b *testing.B) { benchTransitivity(b, 1000, 1) }

// BenchmarkTransitivity10k runs the same sweep on a 10k-node, 80k-edge
// network — a scale the pre-snapshot live-store path made impractical.
// Each op captures a fresh epoch through the arena pool, so steady-state
// bytes/op reflect pooled reuse, not fresh ~23 MB arenas.
func BenchmarkTransitivity10k(b *testing.B) { benchTransitivity(b, 10000, 1) }

// BenchmarkTransitivity100k runs the full 100k-node, 500k-edge sweep end
// to end — the ROADMAP's scale milestone, generated on socialgen's
// streaming path and captured with the parallel two-pass capture.
func BenchmarkTransitivity100k(b *testing.B) {
	p, setup := benchnet.PopulationFor(benchnet.Net100k())
	eng := &sim.Engine{Pop: p, Parallelism: 0, Label: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.TransitivityRunModel(setup, core.Aggressive, benchSeed)
	}
}

// BenchmarkRounds100k plays one full mutuality round — snapshot capture,
// lock-free compute phase, ordered merge — on the 100k-node, 500k-edge
// network. The snapshot-round refactor unlocked this scale: the compute
// phase reads a per-round frozen core.RoundView from the population's epoch
// chain instead of contending on live store locks, so rounds parallelize
// as cleanly as the transitivity sweeps. Each round's capture rereads only
// the rows the previous round's merge wrote.
func BenchmarkRounds100k(b *testing.B) {
	p, _ := benchnet.PopulationFor(benchnet.Net100k())
	eng := &sim.Engine{Pop: p, Parallelism: 0, Label: "bench"}
	tk := task.Uniform(1, task.CharCompute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c sim.MutualityCounters
		eng.MutualityRound(i, tk, &c)
	}
}

// BenchmarkTransitivity10kPooled measures the warm repeated-sweep loop: one
// epoch Reset plus one full aggressive run per op over unchanged stores.
// Reset then keeps the epoch it holds and the memo its tables, so the op is
// the sweep alone; bytes/op must stay far below the ~22.9 MB/op a
// fresh-arena capture costs at this scale.
func BenchmarkTransitivity10kPooled(b *testing.B) {
	p, setup := benchnet.Population(10000)
	eng := &sim.Engine{Pop: p, Parallelism: 1, Label: "bench"}
	ep := eng.TransitivityEpoch(setup)
	defer ep.Release()
	ep.RunModel(core.Aggressive, benchSeed) // warm arenas and memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.Reset()
		ep.RunModel(core.Aggressive, benchSeed)
	}
}

// BenchmarkSimStep is one step of the paper's simulation loop on a
// 1k-node network: a mutuality round, a Reset of the transitivity epoch,
// and an aggressive sweep. The round shares the epoch the previous Reset
// captured, and Reset rereads only the rows the round wrote; the
// rows_recaptured/op metric counts the rows both read from the stores.
func BenchmarkSimStep(b *testing.B) {
	p, setup := benchnet.Population(1000)
	eng := &sim.Engine{Pop: p, Label: "bench"}
	tk := task.Uniform(1, task.CharCompute)
	ep := eng.TransitivityEpoch(setup)
	defer ep.Release()
	var c sim.MutualityCounters
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MutualityRound(i, tk, &c)
		rows += p.RowsRecaptured()
		ep.Reset()
		rows += p.RowsRecaptured()
		ep.RunModel(core.Aggressive, benchSeed)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows_recaptured/op")
}

// BenchmarkSetup100k measures the full 100k-node setup pipeline the sweep
// sits on — sharded population build (roles, behaviors, CSR) plus bulk
// experience seeding over the worker pool — on the pre-generated canonical
// network. The ROADMAP target: below ~1 s per op on 1 CPU (the serial
// path took ~2 s).
func BenchmarkSetup100k(b *testing.B) {
	net := socialgen.Generate(benchnet.Net100k(), benchnet.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchnet.Populate(net)
	}
}

// BenchmarkSweep1M times the full million-node pipeline per op: the
// sharded population build, the bulk experience-seeding pass, and one
// frozen-epoch aggressive transitivity sweep (400k trustors in one pass).
// The 1M-node / 6M-edge network generates once, outside the timer; the
// per-op rebuild is what the scale milestone budgets (populate+seed+sweep),
// so it stays inside. At ~6 GB of heap it runs only when SIOT_SCALE1M is
// set, like benchnet's TestScaleSmoke1M.
func BenchmarkSweep1M(b *testing.B) {
	if os.Getenv("SIOT_SCALE1M") == "" {
		b.Skip("set SIOT_SCALE1M=1 to run the million-node sweep")
	}
	net := socialgen.Generate(benchnet.Net1M(), benchnet.Seed)
	var st sim.TransitivityStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, setup := benchnet.Populate(net)
		eng := &sim.Engine{Pop: p, Parallelism: 0, Label: "bench"}
		st = eng.TransitivityRunModel(setup, core.Aggressive, benchSeed)
	}
	b.ReportMetric(float64(st.Requests), "requests")
	b.ReportMetric(float64(st.PotentialTrustees), "potential_trustees")
	b.ReportMetric(float64(st.Successes), "successes")
}

// benchSeedPass isolates the experience-seeding pass at the given scale and
// worker count: each op re-builds a fresh population outside the timer and
// times one SeedExperience over it.
func benchSeedPass(b *testing.B, nodes, workers int) {
	net := socialgen.Generate(benchnet.Profile(nodes), benchnet.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := sim.DefaultPopulationConfig(benchnet.Seed)
		cfg.Parallelism = workers
		p := sim.NewPopulation(net, cfg)
		setup := sim.DefaultTransitivitySetup(5, p.Rand("bench-rounds"))
		setup.MaxDepth = 3
		b.StartTimer()
		sim.SeedExperience(p, setup, benchnet.Seed)
	}
}

// BenchmarkSeed10kSerial is the single-worker baseline of the bulk seeding
// pass on the 10k-node network.
func BenchmarkSeed10kSerial(b *testing.B) { benchSeedPass(b, 10000, 1) }

// BenchmarkSeed10kParallel4 seeds the same network with four workers. The
// stores are byte-identical at every width (TestSeedParallelEquivalence);
// on a multi-core machine the wall-clock time should drop accordingly.
func BenchmarkSeed10kParallel4(b *testing.B) { benchSeedPass(b, 10000, 4) }

// benchCapture measures one pooled epoch capture — the two-pass parallel
// record capture plus the per-edge usage counters, as the engines run it
// (Population.RoundView) — at the given scale and worker count.
func benchCapture(b *testing.B, nodes, workers int) {
	p, _ := benchnet.Population(nodes)
	pool := core.NewArenaPool()
	p.RoundView(workers, pool).Release() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RoundView(workers, pool).Release()
	}
}

// BenchmarkCapture10kSerial is the one-worker baseline of the 10k-node
// trust-view capture.
func BenchmarkCapture10kSerial(b *testing.B) { benchCapture(b, 10000, 1) }

// BenchmarkCapture10kParallel4 captures the same view with four workers.
// Output is byte-identical at every width (TestCaptureParallelEquivalence);
// on a multi-core machine the wall-clock time should drop accordingly.
func BenchmarkCapture10kParallel4(b *testing.B) { benchCapture(b, 10000, 4) }

// BenchmarkFindAggressive measures one warm aggressive search over a frozen
// epoch. With the pooled dense scratch state and a recycled result this
// must report 0 allocs/op (guarded by sim's TestFindViewZeroAlloc).
func BenchmarkFindAggressive(b *testing.B) {
	p, setup := benchnet.Population(1000)
	s := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	view := p.RoundView(1, nil).TrustView
	memo := core.NewEdgeMemoPooled(view, p.Config().Update.Norm, 1, nil)
	tk := setup.Universe.Tasks[0]
	memo.RequireModel(core.Aggressive, []task.Task{tk})
	trustor := p.Trustors[0]
	var res core.SearchResult
	if err := s.FindViewModelInto(&res, view, memo, trustor, tk, core.Aggressive); err != nil { // also warms the pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FindViewModelInto(&res, view, memo, trustor, tk, core.Aggressive)
	}
	b.ReportMetric(float64(res.Inquired), "inquired")
}

// BenchmarkTrustInto measures one warm aggressive point query on the same
// epoch: trust(trustor, trustee) for a non-neighbour candidate of that
// search, answered from the frontiers to depth MaxDepth−1 plus a last-hop
// fold instead of the full candidate list. It must report 0 allocs/op
// (guarded by sim's TestTrustIntoZeroAlloc).
func BenchmarkTrustInto(b *testing.B) {
	p, setup := benchnet.Population(1000)
	s := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	view := p.RoundView(1, nil).TrustView
	memo := core.NewEdgeMemoPooled(view, p.Config().Update.Norm, 1, nil)
	tk := setup.Universe.Tasks[0]
	memo.RequireModel(core.Aggressive, []task.Task{tk})
	trustor := p.Trustors[0]
	var res core.SearchResult
	if err := s.FindViewModelInto(&res, view, memo, trustor, tk, core.Aggressive); err != nil {
		b.Fatal(err)
	}
	trustee := trustor
	for _, c := range res.Candidates {
		if _, adjacent := view.EdgeIndex(trustor, c.ID); !adjacent {
			trustee = c.ID
		}
	}
	if _, found, err := s.TrustInto(view, memo, trustor, trustee, tk, core.Aggressive); err != nil || !found { // also warms the pool
		b.Fatalf("no transitive candidate to query (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TrustInto(view, memo, trustor, trustee, tk, core.Aggressive)
	}
}

// BenchmarkServeQuery1k measures one trust query per op against a live
// serve engine on the canonical 1k-node benchmark network. Read-only
// steady state: the writer goroutine idles and every op is an epoch
// Acquire → frozen-view answer → Release. The engine's own latency
// histogram supplies the p50/p99 query-latency metrics reported here.
func BenchmarkServeQuery1k(b *testing.B) {
	eng, err := serve.New(serve.Config{
		Nodes: 1000, Seed: benchSeed, Seeded: true, Model: core.Aggressive,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	n := eng.NumAgents()
	types := len(eng.TaskTypes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trustor := core.AgentID(i % n)
		trustee := core.AgentID((i*31 + 1) % n)
		if trustee == trustor {
			trustee = core.AgentID((int(trustee) + 1) % n)
		}
		eng.Trust(trustor, trustee, i%types)
	}
	b.StopTimer()
	st := eng.Stats()
	b.ReportMetric(float64(st.QueryP50Ns), "p50_ns")
	b.ReportMetric(float64(st.QueryP99Ns), "p99_ns")
}

// BenchmarkServeMixed10k measures the serving system's mixed read/write
// steady state on the 10k-node network: three trust queries and one
// ingested observation per four ops, with the writer goroutine applying
// events and republishing a fresh epoch every 512 of them, so queries
// keep acquiring consistent snapshots across concurrent swaps.
func BenchmarkServeMixed10k(b *testing.B) {
	eng, err := serve.New(serve.Config{
		Nodes: 10000, Seed: benchSeed, Seeded: true, Model: core.Aggressive,
		EpochEvery: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	n := eng.NumAgents()
	types := len(eng.TaskTypes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trustor := core.AgentID(i % n)
		if i%4 == 3 {
			nbrs := eng.Neighbors(trustor)
			eng.Ingest(serve.Event{
				Op: serve.OpObserve, Trustor: trustor, Trustee: nbrs[i%len(nbrs)],
				Type:    i % types,
				Outcome: core.Outcome{Success: i%3 != 0, Gain: 0.8, Damage: 0.2, Cost: 0.1},
			})
			continue
		}
		trustee := core.AgentID((i*31 + 1) % n)
		if trustee == trustor {
			trustee = core.AgentID((int(trustee) + 1) % n)
		}
		eng.Trust(trustor, trustee, i%types)
	}
	b.StopTimer()
	st := eng.Stats()
	b.ReportMetric(float64(st.QueryP50Ns), "p50_ns")
	b.ReportMetric(float64(st.QueryP99Ns), "p99_ns")
	b.ReportMetric(float64(st.Epochs), "epochs")
}

// BenchmarkTable1Connectivity regenerates Table 1: the connectivity
// characteristics of the three evaluation networks.
func BenchmarkTable1Connectivity(b *testing.B) {
	var clustering float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(benchSeed)
		clustering = res.Rows[0].Got.AvgClustering
	}
	b.ReportMetric(clustering, "fb_clustering")
}

// BenchmarkFig8Inference regenerates Fig. 8: percentage of honest trustee
// selections with and without characteristic inference, on the ZigBee
// testbed simulator.
func BenchmarkFig8Inference(b *testing.B) {
	cfg := experiments.DefaultFig8Config(benchSeed)
	cfg.Experiments = 5
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig8(cfg)
	}
	b.ReportMetric(stats.Mean(res.WithModel.Y), "pct_honest_with")
	b.ReportMetric(stats.Mean(res.WithoutModel.Y), "pct_honest_without")
}

// BenchmarkTable2RealProperties regenerates Table 2: the transitivity
// comparison with node profile features as task characteristics.
func BenchmarkTable2RealProperties(b *testing.B) {
	cfg := experiments.DefaultTable2Config(benchSeed)
	cfg.Repeats = 1
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(cfg)
	}
	for _, c := range res.Cells {
		if c.Network == "facebook" && c.Model == core.Aggressive.Name() {
			b.ReportMetric(c.Success, "fb_aggr_success")
		}
		if c.Network == "facebook" && c.Model == core.Traditional.Name() {
			b.ReportMetric(c.Success, "fb_trad_success")
		}
	}
}

// BenchmarkFig13NetProfit regenerates Fig. 13: converged net profit of the
// two delegation strategies.
func BenchmarkFig13NetProfit(b *testing.B) {
	cfg := experiments.DefaultFig13Config(benchSeed)
	cfg.Iterations = 500
	var res experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig13(cfg)
	}
	b.ReportMetric(res.Converged["facebook ("+sim.StrategyNetProfit.String()+")"], "fb_second_profit")
	b.ReportMetric(res.Converged["facebook ("+sim.StrategySuccessRate.String()+")"], "fb_first_profit")
}

// BenchmarkFig14ActiveTime regenerates Fig. 14: trustor active time with
// and without cost-aware evaluation under fragment-stall attackers.
func BenchmarkFig14ActiveTime(b *testing.B) {
	cfg := experiments.DefaultFig14Config(benchSeed)
	cfg.TasksPerTrustor = 20
	var res experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig14(cfg)
	}
	n := len(res.WithModel.Y)
	b.ReportMetric(stats.Mean(res.WithModel.Y[n-5:]), "late_active_ms_with")
	b.ReportMetric(stats.Mean(res.WithoutModel.Y[n-5:]), "late_active_ms_without")
}

// BenchmarkFig15DynamicEnvironment regenerates Fig. 15: environment-step
// tracking of the expected success rate.
func BenchmarkFig15DynamicEnvironment(b *testing.B) {
	cfg := experiments.DefaultFig15Config(benchSeed)
	cfg.Runs = 20
	var res experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig15(cfg)
	}
	b.ReportMetric(stats.Mean(res.Proposed.Y[160:200]), "proposed_phase2")
	b.ReportMetric(stats.Mean(res.Traditional.Y[160:200]), "traditional_phase2")
}

// BenchmarkFig16LightSchedule regenerates Fig. 16: net profit across the
// light/dark/light schedule with and without environment correction.
func BenchmarkFig16LightSchedule(b *testing.B) {
	cfg := experiments.DefaultFig16Config(benchSeed)
	var res experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig16(cfg)
	}
	n := len(res.WithModel.Y)
	b.ReportMetric(stats.Mean(res.WithModel.Y[n*3/4:]), "final_profit_with")
	b.ReportMetric(stats.Mean(res.WithoutModel.Y[n*3/4:]), "final_profit_without")
}

// BenchmarkAblationEq7 quantifies the eq. 7 mistrust term against the plain
// product of eq. 5 (design-choice ablation, DESIGN.md §6).
func BenchmarkAblationEq7(b *testing.B) {
	cfg := experiments.DefaultAblationEq7Config(benchSeed)
	cfg.Pairs = 5000
	var res experiments.AblationEq7Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunAblationEq7(cfg)
	}
	b.ReportMetric(res.RMSEProduct, "product_rmse")
	b.ReportMetric(res.RMSEEq7, "eq7_rmse")
}

// BenchmarkAblationCannikin quantifies min-vs-mean environment combination
// in the removal function r(·).
func BenchmarkAblationCannikin(b *testing.B) {
	cfg := experiments.DefaultAblationCannikinConfig(benchSeed)
	cfg.Runs = 15
	var res experiments.AblationCannikinResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAblationCannikin(cfg)
	}
	b.ReportMetric(res.TrackErrMin, "bias_min")
	b.ReportMetric(res.TrackErrMean, "bias_mean")
}

// BenchmarkAblationSelfDelegation quantifies the eq. 24 self-delegation
// option.
func BenchmarkAblationSelfDelegation(b *testing.B) {
	cfg := experiments.DefaultAblationSelfDelegationConfig(benchSeed)
	cfg.Iterations = 250
	var res experiments.AblationSelfDelegationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAblationSelfDelegation(cfg)
	}
	b.ReportMetric(res.WithSelf, "profit_with_self")
	b.ReportMetric(res.WithoutSelf, "profit_without_self")
}
