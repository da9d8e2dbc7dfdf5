// Micro-benchmarks of the engine's layers: rounds, the transitivity sweep,
// setup, seeding, capture and one search or point query, with serial and
// parallel pairs for the multi-core comparisons. The paper's tables and
// figures have none here: their goldens (internal/experiments) pin the
// numbers, cmd/siot-bench runs them at full scale, and the four workloads
// of benchmark/ time the serve and sim paths end to end.
package siot_test

import (
	"os"
	"testing"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/sim"
	"siot/internal/socialgen"
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
