package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/serve"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// The -json perf suite: a fixed set of engine workloads timed with
// testing.Benchmark and appended to a JSON history file, so the perf
// trajectory of the hot paths stays machine-readable across PRs. The
// workloads mirror the go test benchmarks (bench_test.go) on the shared
// benchnet networks.

// perfResult is one timed workload.
type perfResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SpeedupVsSerial compares against the suite's serial rounds baseline
	// (only set for parallel variants).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// SpeedupNote qualifies SpeedupVsSerial when the measurement
	// environment cannot exhibit parallel speedup (GOMAXPROCS=1): a ~1.0x
	// reading there is an artifact of the worker pool's overhead, not a
	// regression signal.
	SpeedupNote string `json:"speedup_note,omitempty"`
	// HeapPeakBytes is the largest live heap (runtime.MemStats.HeapAlloc)
	// a background sampler observed across the workload, setup included —
	// the footprint trajectory of the memory-bound workloads. Sampled at
	// ~50 ms, so sub-sample spikes can slip through; treat it as a floor.
	HeapPeakBytes uint64             `json:"heap_peak_bytes,omitempty"`
	Counters      map[string]float64 `json:"counters,omitempty"`
}

// perfEntry is one suite run (one PR / one CI invocation). GOMAXPROCS and
// NumCPU record the measurement environment: entries from differently
// sized machines are not comparable, and the -compare gate refuses to
// treat them as a regression baseline.
type perfEntry struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	Go    string `json:"go"`
	// Note explains context a reader of the history needs — e.g. a
	// deliberate workload change that moves like-named benchmarks for
	// data rather than code reasons (set with -note).
	Note       string       `json:"note,omitempty"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Benchmarks []perfResult `json:"benchmarks"`
}

// perfFile is the BENCH.json layout: an append-only entry history.
type perfFile struct {
	Entries []perfEntry `json:"entries"`
}

// timed converts a testing.Benchmark result, stamping the heap peak the
// suite's sampler observed across the workload.
func timed(name string, r testing.BenchmarkResult, heapPeak uint64) perfResult {
	return perfResult{
		Name:          name,
		NsPerOp:       float64(r.NsPerOp()),
		BytesPerOp:    r.AllocedBytesPerOp(),
		AllocsPerOp:   r.AllocsPerOp(),
		HeapPeakBytes: heapPeak,
	}
}

// heapSampler polls runtime.ReadMemStats in the background, tracking the
// largest HeapAlloc since the last Peak call. One sampler serves the whole
// suite: each workload's window runs from the previous Peak() to the next.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-ticker.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	s.mu.Unlock()
}

// Peak takes one final sample, returns the peak observed since the previous
// Peak call, and resets the window.
func (s *heapSampler) Peak() uint64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

func (s *heapSampler) Stop() {
	close(s.stop)
	<-s.done
}

// benchRoundsWorkload times one full delegation round (mutuality +
// aggressive transitivity sweep) per op at the given scale and width.
func benchRoundsWorkload(nodes, workers int) (testing.BenchmarkResult, sim.MutualityCounters) {
	var c sim.MutualityCounters
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		p, setup := benchnet.Population(nodes)
		eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "perf"}
		tk := task.Uniform(1, task.CharCompute)
		c = sim.MutualityCounters{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.MutualityRound(i, tk, &c)
			eng.TransitivityRunModel(setup, core.PolicyAggressive.Model(), benchnet.Seed)
		}
	})
	return res, c
}

// benchTransitivityWorkload times one frozen-epoch aggressive sweep per op.
// The sweep is a pure read of the population, so the (expensive at 10k
// nodes) build happens once, outside the benchmark's sizing rounds.
func benchTransitivityWorkload(nodes, workers int) (testing.BenchmarkResult, sim.TransitivityStats) {
	p, setup := benchnet.Population(nodes)
	eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "perf"}
	var st sim.TransitivityStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st = eng.TransitivityRunModel(setup, core.PolicyAggressive.Model(), benchnet.Seed)
		}
	})
	return res, st
}

// benchCaptureWorkload times one pooled two-pass trust-view capture per op
// at the given scale and worker count — the serial bottleneck the parallel
// capture removed at large N. The population (expensive at 10k+) is built
// once, outside the benchmark's sizing rounds.
func benchCaptureWorkload(nodes, workers int) testing.BenchmarkResult {
	p, _ := benchnet.Population(nodes)
	pool := core.NewArenaPool()
	v := p.TrustViewParallel(workers, pool) // warm the pool
	v.Release()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := p.TrustViewParallel(workers, pool)
			v.Release()
		}
	})
}

// benchSetupWorkload times the full setup pipeline (sharded population
// build plus bulk experience seeding, at the default GOMAXPROCS pool
// width) per op on the canonical network for the profile; the network
// itself is generated once, outside the timer.
func benchSetupWorkload(profile socialgen.Profile) testing.BenchmarkResult {
	net := socialgen.Generate(profile, benchnet.Seed)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchnet.Populate(net)
		}
	})
}

// benchSeedWorkload isolates the bulk experience-seeding pass: each op
// re-builds a fresh population outside the timer and times one
// SeedParallel at the given worker count.
func benchSeedWorkload(nodes, workers int) testing.BenchmarkResult {
	net := socialgen.Generate(benchnet.Profile(nodes), benchnet.Seed)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := sim.DefaultPopulationConfig(benchnet.Seed)
			cfg.Parallelism = workers
			p := sim.NewPopulation(net, cfg)
			setup := sim.DefaultTransitivitySetup(5, p.Rand("bench-rounds"))
			setup.MaxDepth = 3
			b.StartTimer()
			p.SeedParallel(setup, benchnet.Seed, workers)
		}
	})
}

// benchTransitivity100kWorkload times the full 100k-node sweep — streaming
// network generation and the seeded population are built once, each op is
// one pooled capture + memo pre-pass + 40k-trustor aggressive sweep.
func benchTransitivity100kWorkload(workers int) (testing.BenchmarkResult, sim.TransitivityStats) {
	p, setup := benchnet.Population100k()
	eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "perf"}
	var st sim.TransitivityStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st = eng.TransitivityRunModel(setup, core.PolicyAggressive.Model(), benchnet.Seed)
		}
	})
	return res, st
}

// benchRounds100kWorkload times one full 100k-node mutuality round per op:
// snapshot capture through the epoch handle, lock-free compute phase over
// the worker pool, single-threaded ordered merge. The population is built
// once; counters accumulate across ops and come back for the entry record.
func benchRounds100kWorkload(workers int) (testing.BenchmarkResult, sim.MutualityCounters) {
	p, _ := benchnet.Population100k()
	eng := &sim.Engine{Pop: p, Parallelism: workers, Label: "perf"}
	tk := task.Uniform(1, task.CharCompute)
	var c sim.MutualityCounters
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		c = sim.MutualityCounters{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.MutualityRound(i, tk, &c)
		}
	})
	return res, c
}

// benchFindWorkload times one warm aggressive search over a frozen epoch
// (the 0 allocs/op guard's workload). Pure read: built once.
func benchFindWorkload(nodes int) (testing.BenchmarkResult, int) {
	p, setup := benchnet.Population(nodes)
	s := p.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2)
	view := p.TrustView()
	memo := core.NewEdgeMemo(view, p.Config().Update.Norm, 1)
	tk := setup.Universe.Tasks[0]
	memo.RequireModel(core.PolicyAggressive.Model(), []task.Task{tk})
	trustor := p.Trustors[0]
	var out core.SearchResult
	s.FindViewModelInto(&out, view, memo, trustor, tk, core.PolicyAggressive.Model()) // warm the pool
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.FindViewModelInto(&out, view, memo, trustor, tk, core.PolicyAggressive.Model())
		}
	})
	return res, out.Inquired
}

// benchServeQueryWorkload times one trust query per op against a live
// serve engine on the canonical benchmark network (read-only: the writer
// goroutine idles, every op is an Acquire → answer → Release on the initial
// epoch). The engine's own latency histogram supplies p50/p99 counters.
func benchServeQueryWorkload(nodes int) (testing.BenchmarkResult, serve.Stats) {
	eng, err := serve.New(serve.Config{
		Nodes: nodes, Seed: benchnet.Seed, Seeded: true, Model: core.PolicyAggressive.Model(),
	})
	if err != nil {
		panic(err) // benchmark profiles are always resolvable
	}
	defer eng.Close()
	n := eng.NumAgents()
	types := len(eng.TaskTypes())
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trustor := core.AgentID(i % n)
			trustee := core.AgentID((i*31 + 1) % n)
			if trustee == trustor {
				trustee = core.AgentID((int(trustee) + 1) % n)
			}
			eng.Trust(trustor, trustee, i%types)
		}
	})
	return res, eng.Stats()
}

// benchServeMixedWorkload times the mixed read/write path: each op is three
// trust queries and one ingested observation (applied by the writer
// goroutine, republishing the epoch every 512 events), so queries keep
// acquiring snapshots across concurrent swaps — the serving system's
// steady state.
func benchServeMixedWorkload(nodes int) (testing.BenchmarkResult, serve.Stats) {
	eng, err := serve.New(serve.Config{
		Nodes: nodes, Seed: benchnet.Seed, Seeded: true, Model: core.PolicyAggressive.Model(),
		EpochEvery: 512,
	})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	n := eng.NumAgents()
	types := len(eng.TaskTypes())
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%4 == 3 {
				trustor := core.AgentID(i % n)
				nbrs := eng.Neighbors(trustor)
				eng.Ingest(serve.Event{
					Op: serve.OpObserve, Trustor: trustor, Trustee: nbrs[i%len(nbrs)],
					Type:    i % types,
					Outcome: core.Outcome{Success: i%3 != 0, Gain: 0.8, Damage: 0.2, Cost: 0.1},
				})
				continue
			}
			trustor := core.AgentID(i % n)
			trustee := core.AgentID((i*31 + 1) % n)
			if trustee == trustor {
				trustee = core.AgentID((int(trustee) + 1) % n)
			}
			eng.Trust(trustor, trustee, i%types)
		}
	})
	return res, eng.Stats()
}

// benchServeIngestFsyncWorkload times one durably acknowledged ingest per
// op: the journal lives on a real temp file in batch-fsync mode, so each op
// measures the full group-commit path — enqueue, apply, journal append,
// fsync, ack. Sequential ingests make every batch a batch of one, the worst
// case for group commit (no amortization across concurrent producers), so
// the number is an upper bound on per-event durability cost.
func benchServeIngestFsyncWorkload(nodes int) (testing.BenchmarkResult, serve.Stats, error) {
	f, err := os.CreateTemp("", "siot-bench-journal-*.jsonl")
	if err != nil {
		return testing.BenchmarkResult{}, serve.Stats{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	eng, err := serve.New(serve.Config{
		Nodes: nodes, Seed: benchnet.Seed, Seeded: true, Model: core.PolicyAggressive.Model(),
		EpochEvery: 1 << 30, Journal: f, Fsync: serve.FsyncBatch,
	})
	if err != nil {
		return testing.BenchmarkResult{}, serve.Stats{}, err
	}
	n := eng.NumAgents()
	types := len(eng.TaskTypes())
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trustor := core.AgentID(i % n)
			nbrs := eng.Neighbors(trustor)
			eng.Ingest(serve.Event{
				Op: serve.OpObserve, Trustor: trustor, Trustee: nbrs[i%len(nbrs)],
				Type:    i % types,
				Outcome: core.Outcome{Success: i%3 != 0, Gain: 0.8, Damage: 0.2, Cost: 0.1},
			})
		}
	})
	stats := eng.Stats()
	err = eng.Close()
	return res, stats, err
}

// benchSweep1MWorkload times the full million-node pipeline per op: the
// sharded population build, the bulk experience-seeding pass, and one
// frozen-epoch aggressive transitivity sweep on the streaming sharded path
// (400k trustors through bounded per-shard scratch). The 1M-node / 6M-edge
// network generates once, outside the timer; the per-op rebuild is what the
// scale milestone budgets (populate+seed+sweep), so it stays inside.
func benchSweep1MWorkload() (testing.BenchmarkResult, sim.TransitivityStats) {
	net := socialgen.Generate(benchnet.Net1M(), benchnet.Seed)
	var st sim.TransitivityStats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, setup := benchnet.Populate(net)
			eng := &sim.Engine{Pop: p, Parallelism: 0, Label: "perf"}
			st = eng.TransitivityRunModel(setup, core.PolicyAggressive.Model(), benchnet.Seed)
		}
	})
	return res, st
}

// runPerfSuite executes the suite and appends the entry to path (creating
// the file when absent). With compare set, the fresh measurements are also
// diffed against the file's previous last entry and any >15% ns/op
// regression fails the run — unless the baseline was recorded on a
// differently sized machine, in which case the diff is reported but not
// enforced (timings across machines are not comparable; see perfEntry).
// With scale1m set, the million-node sweep-1m workload joins the suite
// (several minutes and ~6 GB of heap; gated so the default run stays light).
func runPerfSuite(path, label, note string, compare, scale1m bool) error {
	var out perfFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			return fmt.Errorf("parse existing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	entry := perfEntry{
		Label:      label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Note:       note,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	sampler := startHeapSampler()
	defer sampler.Stop()

	serial, counters := benchRoundsWorkload(1000, 1)
	r := timed("rounds-1k-serial", serial, sampler.Peak())
	r.Counters = map[string]float64{
		"requests":  float64(counters.Requests),
		"successes": float64(counters.Successes),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	parallel, _ := benchRoundsWorkload(1000, 4)
	r = timed("rounds-1k-parallel4", parallel, sampler.Peak())
	r.SpeedupVsSerial = float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
	if entry.GoMaxProcs == 1 {
		r.SpeedupNote = "measured at GOMAXPROCS=1; pool overhead only, not a regression signal"
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	transit, st := benchTransitivityWorkload(1000, 1)
	r = timed("transitivity-1k-serial", transit, sampler.Peak())
	r.Counters = map[string]float64{
		"requests":           float64(st.Requests),
		"potential_trustees": float64(st.PotentialTrustees),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	transit10k, st10 := benchTransitivityWorkload(10000, 1)
	r = timed("transitivity-10k-serial", transit10k, sampler.Peak())
	r.Counters = map[string]float64{
		"requests":           float64(st10.Requests),
		"potential_trustees": float64(st10.PotentialTrustees),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	capture := benchCaptureWorkload(10000, 1)
	entry.Benchmarks = append(entry.Benchmarks, timed("capture-10k-serial", capture, sampler.Peak()))

	seedSerial := benchSeedWorkload(10000, 1)
	entry.Benchmarks = append(entry.Benchmarks, timed("seed-10k-serial", seedSerial, sampler.Peak()))

	seedParallel := benchSeedWorkload(10000, 4)
	r = timed("seed-10k-parallel4", seedParallel, sampler.Peak())
	r.SpeedupVsSerial = float64(seedSerial.NsPerOp()) / float64(seedParallel.NsPerOp())
	if entry.GoMaxProcs == 1 {
		r.SpeedupNote = "measured at GOMAXPROCS=1; pool overhead only, not a regression signal"
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	setup100k := benchSetupWorkload(benchnet.Net100k())
	entry.Benchmarks = append(entry.Benchmarks, timed("setup-100k", setup100k, sampler.Peak()))

	transit100k, st100 := benchTransitivity100kWorkload(0)
	r = timed("transitivity-100k", transit100k, sampler.Peak())
	r.Counters = map[string]float64{
		"requests":           float64(st100.Requests),
		"potential_trustees": float64(st100.PotentialTrustees),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	rounds100k, c100 := benchRounds100kWorkload(0)
	r = timed("rounds-100k", rounds100k, sampler.Peak())
	r.Counters = map[string]float64{
		"requests":  float64(c100.Requests),
		"successes": float64(c100.Successes),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	find, inquired := benchFindWorkload(1000)
	r = timed("find-aggressive-1k", find, sampler.Peak())
	r.Counters = map[string]float64{"inquired": float64(inquired)}
	entry.Benchmarks = append(entry.Benchmarks, r)

	serveQ, sq := benchServeQueryWorkload(1000)
	r = timed("serve-query-1k", serveQ, sampler.Peak())
	r.Counters = map[string]float64{
		"queries":      float64(sq.Queries),
		"query_p50_ns": float64(sq.QueryP50Ns),
		"query_p99_ns": float64(sq.QueryP99Ns),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	serveM, sm := benchServeMixedWorkload(10000)
	r = timed("serve-mixed-10k", serveM, sampler.Peak())
	r.Counters = map[string]float64{
		"queries":      float64(sm.Queries),
		"ingested":     float64(sm.Ingested),
		"epochs":       float64(sm.Epochs),
		"query_p50_ns": float64(sm.QueryP50Ns),
		"query_p99_ns": float64(sm.QueryP99Ns),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	serveF, sf, err := benchServeIngestFsyncWorkload(1000)
	if err != nil {
		return fmt.Errorf("serve-ingest-fsync: %w", err)
	}
	r = timed("serve-ingest-fsync", serveF, sampler.Peak())
	r.Counters = map[string]float64{
		"ingested":     float64(sf.Ingested),
		"fsync_p99_ns": float64(sf.FsyncP99Ns),
	}
	entry.Benchmarks = append(entry.Benchmarks, r)

	if scale1m {
		sweep1m, st1m := benchSweep1MWorkload()
		r = timed("sweep-1m", sweep1m, sampler.Peak())
		r.Counters = map[string]float64{
			"requests":           float64(st1m.Requests),
			"potential_trustees": float64(st1m.PotentialTrustees),
			"successes":          float64(st1m.Successes),
		}
		entry.Benchmarks = append(entry.Benchmarks, r)
	}

	for _, b := range entry.Benchmarks {
		fmt.Printf("%-24s %12.0f ns/op %10d B/op %8d allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}

	var regressions []string
	if compare && len(out.Entries) > 0 {
		regressions = compareEntries(out.Entries[len(out.Entries)-1], entry)
	}

	out.Entries = append(out.Entries, entry)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(regressions) > 0 {
		for _, msg := range regressions {
			fmt.Println("PERF FAIL ", msg)
		}
		return fmt.Errorf("%d benchmark(s) regressed more than %d%% vs entry %q", len(regressions), int(regressionTolerance*100), out.Entries[len(out.Entries)-2].Label)
	}
	return nil
}

// regressionTolerance is the fractional ns/op slowdown the -compare gate
// accepts before failing (noise on shared CI runners sits well below it).
const regressionTolerance = 0.15

// heapTolerance is the fractional heap-peak growth past which -compare
// prints a warning. Warn-only: the sampler's 50 ms grid and GC timing put
// real variance on the reading, so a hard gate would flake — but a >25%
// jump on a like-for-like machine is worth a human look.
const heapTolerance = 0.25

// minEnforceNs is the ns/op floor below which the -compare gate only warns:
// on sub-millisecond workloads a >15% delta is routinely timer jitter,
// scheduler noise, or cache alignment, not a code regression, so failing
// the build on it would make the gate cry wolf.
const minEnforceNs = 1e6

// compareEntries diffs cur against base by benchmark name and returns one
// message per enforced regression. Benchmarks present on only one side are
// skipped (the suite may grow); a baseline from a differently sized machine
// demotes every finding to a printed warning, as does a workload whose
// ns/op sits under minEnforceNs on either side (jitter dominates there).
func compareEntries(base, cur perfEntry) []string {
	enforce := base.NumCPU == cur.NumCPU && base.GoMaxProcs == cur.GoMaxProcs
	if !enforce {
		fmt.Printf("compare: baseline %q ran on %d CPUs (GOMAXPROCS %d), this run on %d (GOMAXPROCS %d); reporting deltas without enforcement\n",
			base.Label, base.NumCPU, base.GoMaxProcs, cur.NumCPU, cur.GoMaxProcs)
	}
	prev := make(map[string]perfResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	var regressions []string
	for _, b := range cur.Benchmarks {
		p, ok := prev[b.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		ratio := b.NsPerOp / p.NsPerOp
		fmt.Printf("compare: %-24s %+7.1f%% vs %q\n", b.Name, 100*(ratio-1), base.Label)
		if p.HeapPeakBytes > 0 && b.HeapPeakBytes > 0 {
			if hr := float64(b.HeapPeakBytes) / float64(p.HeapPeakBytes); hr > 1+heapTolerance {
				fmt.Printf("PERF WARN  %s: heap peak %d B vs %d B (%.1f%% larger, tolerance %d%%; warn-only — see heapTolerance)\n",
					b.Name, b.HeapPeakBytes, p.HeapPeakBytes, 100*(hr-1), int(heapTolerance*100))
			}
		}
		if ratio > 1+regressionTolerance {
			msg := fmt.Sprintf("%s: %.0f ns/op vs %.0f ns/op (%.1f%% slower, tolerance %d%%)",
				b.Name, b.NsPerOp, p.NsPerOp, 100*(ratio-1), int(regressionTolerance*100))
			switch {
			case !enforce:
				fmt.Println("PERF WARN ", msg)
			case b.NsPerOp < minEnforceNs || p.NsPerOp < minEnforceNs:
				fmt.Println("PERF WARN ", msg+" (below enforcement floor; timer jitter dominates sub-millisecond workloads)")
			default:
				regressions = append(regressions, msg)
			}
		}
	}
	return regressions
}
