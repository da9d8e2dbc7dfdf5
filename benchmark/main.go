// Command benchmark measures the trust service and the paper's simulation
// end to end, layer by layer, on four workloads:
//
//	serve-read    closed-loop trust queries against a 100k-node serve engine
//	serve-mixed   open-loop queries beside durable ingest on the same world
//	sim-rounds    delegation rounds plus transitivity sweeps at 100k nodes
//	sweep-models  one transitivity sweep per registered trust model at 10k
//
// Each workload builds its inputs from -seed, measures for -seconds, checks
// its outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object with the fields correct, attempted,
// failed and metrics. With -trace 1 the run instead reports per-layer
// metrics from spans recorded around each layer call, prints a self-time
// table, and writes the spans to a file.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload serve-read --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh                      # all four, each in a child process
//	bash benchmark/run.sh -runs 5 -out base.json
//	bash benchmark/run.sh -compare base.json change.json
//
// See README.md for the workloads, metrics and comparison procedure.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression (0 for per-layer metrics).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system sees, reported by every
// workload for its primary operation: a query (serve-read), an ingested
// event from its due time until queries answer from an epoch that includes
// it (serve-mixed), a round-plus-sweep step (sim-rounds), a sweep pass over
// every model (sweep-models). The timing bounds sit at the 25% cap because
// host load on a shared 2-CPU machine moves whole runs by up to ±12%
// (README.md, "Noise"); the heap reading is deterministic to about 1%.
// BENCHMARK.json must match (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_peak_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced metrics every workload reports, named by
// module. Times are measured by the benchmark around public calls into each
// layer; serve.* counts read 0 on the sim workloads, which never start the
// serving layer.
var perLayer = []metricDef{
	{"socialgen.generate_ms", "ms", "lower", 0},
	{"sim.populate_ms", "ms", "lower", 0},
	{"sim.seed_ms", "ms", "lower", 0},
	{"core.capture_ms_p50", "ms", "lower", 0},
	{"core.memo_ms_p50", "ms", "lower", 0},
	{"core.search_us_p50", "us", "lower", 0},
	{"core.search_us_p99", "us", "lower", 0},
	{"core.search_inquired_mean", "count", "lower", 0},
	{"core.search_candidates_mean", "count", "higher", 0},
	{"serve.direct_share", "ratio", "higher", 0},
	{"serve.journal_bytes_per_query", "B", "lower", 0},
	{"serve.epochs", "count", "higher", 0},
	{"benchmark.trace_overhead_pct", "%", "lower", 0},
}

// workload is one named input set.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, res *result) error
}

var workloads = []workload{
	{"serve-read", "closed-loop Zipf-skewed trust queries on a 100k-node engine: the core search and the query-journal path",
		runServeRead},
	{"serve-mixed", "open-loop queries beside durable 500 ev/s ingest: epoch republish (capture + memo) sets how soon a write is served",
		runServeMixed},
	{"sim-rounds", "the paper's simulation loop at 100k nodes: delegation round, store merge, capture and aggressive sweep per step",
		runSimRounds},
	{"sweep-models", "one sweep per registered trust model at 10k nodes: memo building, hellinger-mf training and both search paths",
		runSweepModels},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig carries one run's settings to a workload.
type runConfig struct {
	seed    uint64
	measure time.Duration // the timed phase (split in half when traced)
	warmup  time.Duration
	short   bool    // 1k-node worlds, for the smoke test
	tracer  *tracer // nil when untraced
	out     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples behind a timing
	Note  string  `json:"note,omitempty"` // e.g. which percentile a tail is
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one workload run measured.
type result struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Traced      bool              `json:"traced"`
	Fingerprint string            `json:"fingerprint"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Checks      []check           `json:"checks"`
	Metrics     map[string]metric `json:"metrics"`
	fp          []string
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setTiming records a timing's median and its tail (the percentile rule of
// tailQuantile), both with their sample count.
func (r *result) setTiming(prefix string, q func(float64) float64, n int, unit string) {
	tq := tailQuantile(n)
	r.set(prefix+"_p50_"+unit, q(0.5), unit, n)
	r.Metrics[prefix+"_tail_"+unit] = metric{Value: q(tq), Unit: unit, N: n, Note: fmt.Sprintf("p%.4g", 100*tq)}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// fingerprint adds deterministic inputs and counters to the run's digest:
// results whose digests differ measured different work.
func (r *result) fingerprint(format string, args ...any) {
	r.fp = append(r.fp, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: serve-read, serve-mixed, sim-rounds, sweep-models, or all (each in a child process)")
		seed    = flag.Uint64("seed", 42, "workload seed; inputs are a pure function of it")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the spans here (default: siot-spans-<workload>.jsonl in the temp directory)")
		resPath = flag.String("result", "", "also write the full result as JSON to this file")
		runs    = flag.Int("runs", 0, "run each selected workload this many times (seeds seed, seed+1, ...) and summarize median and quartiles")
		out     = flag.String("out", "", "with -runs, write the summary JSON here")
		compare = flag.Bool("compare", false, "compare two -runs summaries given as arguments: base change")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *spans, *resPath, *runs, *out, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace int, spans, resPath string, runs int, out string, compare bool) error {
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare wants two summary files: base change")
		}
		return compareSummaries(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	var selected []workload
	if name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(name); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if runs > 0 || name == "all" {
		return runChildren(selected, seed, seconds, trace, max(runs, 1), out)
	}
	cfg := runConfig{
		seed:    seed,
		measure: time.Duration(seconds) * time.Second,
		warmup:  time.Second,
		out:     os.Stdout,
	}
	res, err := runWorkload(selected[0], cfg, trace == 1, spans)
	if err != nil {
		return err
	}
	if resPath != "" {
		if err := writeJSON(resPath, res); err != nil {
			return err
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		return err
	}
	if !res.correct() {
		return errors.New("a correctness check failed")
	}
	return nil
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, cfg runConfig, traced bool, spansPath string) (*result, error) {
	res := &result{
		Workload: w.name, Seed: cfg.seed, GoMaxProcs: runtime.GOMAXPROCS(0), Traced: traced,
		Metrics: make(map[string]metric),
	}
	res.fingerprint("workload=%s seed=%d gomaxprocs=%d short=%v", w.name, cfg.seed, res.GoMaxProcs, cfg.short)
	if traced {
		cfg.tracer = newTracer()
	}
	if err := w.run(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sum := sha256.Sum256([]byte(strings.Join(res.fp, "\n")))
	res.Fingerprint = hex.EncodeToString(sum[:8])
	if cfg.tracer != nil {
		all := cfg.tracer.spans()
		printSelfTimes(cfg.out, selfTimes(all), cfg.tracer.dropped.Load())
		if spansPath == "" {
			spansPath = filepath.Join(os.TempDir(), "siot-spans-"+w.name+".jsonl")
		}
		if err := writeSpans(spansPath, all); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(all), spansPath)
	}
	return res, nil
}

// printResult prints every measured metric and check, then the one-line
// JSON summary: end-to-end metrics for an untraced run, per-layer metrics
// for a traced one.
func printResult(w io.Writer, res *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  gomaxprocs %d  fingerprint %s\n",
		res.Workload, res.Seed, res.GoMaxProcs, res.Fingerprint)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " " + m.Note
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-22s %s: %s\n", c.Name, status, c.Detail)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, make(map[string]jsonMetric)}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = jsonMetric{m.Value, d.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", res.Workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChildren runs every selected workload runs times, each in its own
// child process (the sim package's global arena pool and the GC state must
// not carry over between workloads), and summarizes the results.
func runChildren(selected []workload, seed uint64, seconds, trace int, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "siot-benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	results := make(map[string][]*result)
	allOK := true
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			s := seed + uint64(i)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, s))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-result", path)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res result
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: no result (%v): %w", w.name, s, runErr, err)
			}
			if runErr != nil || !res.correct() {
				allOK = false
			}
			results[w.name] = append(results[w.name], &res)
		}
	}
	sum := summarize(selected, results, runs, seed)
	printSummary(os.Stdout, sum)
	if out != "" {
		if err := writeJSON(out, sum); err != nil {
			return err
		}
	}
	if !allOK {
		return errors.New("a workload failed its correctness checks")
	}
	return nil
}

// summary is the -runs output: per workload, the median and quartiles of
// every metric across runs, plus a digest of the runs' fingerprints.
type summary struct {
	GoMaxProcs int                         `json:"gomaxprocs"`
	Runs       int                         `json:"runs"`
	FirstSeed  uint64                      `json:"first_seed"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Why         string                  `json:"why"`
	Fingerprint string                  `json:"fingerprint"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	Metrics     map[string]metricSpread `json:"metrics"`
}

type metricSpread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(selected []workload, results map[string][]*result, runs int, seed uint64) *summary {
	s := &summary{GoMaxProcs: runtime.GOMAXPROCS(0), Runs: runs, FirstSeed: seed, Workloads: make(map[string]*workloadSummary)}
	for _, w := range selected {
		ws := &workloadSummary{Why: w.why, Correct: true, Metrics: make(map[string]metricSpread)}
		h := sha256.New()
		values := make(map[string][]float64)
		units := make(map[string]string)
		for _, r := range results[w.name] {
			fmt.Fprintln(h, r.Fingerprint)
			ws.Correct = ws.Correct && r.correct()
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			for n, m := range r.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		ws.Fingerprint = hex.EncodeToString(h.Sum(nil)[:8])
		for n, v := range values {
			q1, med, q3 := quartiles(v)
			ws.Metrics[n] = metricSpread{Unit: units[n], Median: med, Q1: q1, Q3: q3, Values: v}
		}
		s.Workloads[w.name] = ws
	}
	return s
}

func printSummary(w io.Writer, s *summary) {
	names := make([]string, 0, len(s.Workloads))
	for n := range s.Workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		ws := s.Workloads[n]
		fmt.Fprintf(w, "summary %s: %d run(s), correct=%v, fingerprint %s\n", n, s.Runs, ws.Correct, ws.Fingerprint)
		metricNames := make([]string, 0, len(ws.Metrics))
		for m := range ws.Metrics {
			metricNames = append(metricNames, m)
		}
		slices.Sort(metricNames)
		for _, m := range metricNames {
			ms := ws.Metrics[m]
			fmt.Fprintf(w, "  %-36s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.2f%%\n",
				m, ms.Median, ms.Unit, ms.Q1, ms.Q3, 100*spread(ms))
		}
	}
}

// spread is the interquartile distance as a share of the median.
func spread(m metricSpread) float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// compareSummaries judges a change against a base, both -runs summaries of
// the same seeds: per workload and end-to-end metric, the change's median
// may be worse than the base's by at most the metric's bound. A workload
// whose fingerprint differs measured different work and gets no verdict.
func compareSummaries(w io.Writer, basePath, changePath string) error {
	var base, change summary
	for _, p := range []struct {
		path string
		s    *summary
	}{{basePath, &base}, {changePath, &change}} {
		data, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, p.s); err != nil {
			return fmt.Errorf("%s: %w", p.path, err)
		}
	}
	if base.GoMaxProcs != change.GoMaxProcs {
		fmt.Fprintf(w, "gomaxprocs differs (%d vs %d): workload changed, re-baseline\n", base.GoMaxProcs, change.GoMaxProcs)
		return nil
	}
	regressed := 0
	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		b, c := base.Workloads[n], change.Workloads[n]
		if c == nil {
			fmt.Fprintf(w, "%s: missing from %s\n", n, changePath)
			continue
		}
		if b.Fingerprint != c.Fingerprint {
			fmt.Fprintf(w, "%s: fingerprint %s vs %s: workload changed, re-baseline\n", n, b.Fingerprint, c.Fingerprint)
			continue
		}
		for _, d := range endToEnd {
			bm, cm := b.Metrics[d.Name], c.Metrics[d.Name]
			verdict, worse := judge(d, bm, cm)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%s %-20s base %12.6g change %12.6g %+7.2f%% worse-by (bound %.0f%%, base spread %.2f%%): %s\n",
				n, d.Name, bm.Median, cm.Median, 100*worse, 100*d.Bound, 100*spread(bm), verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

// judge returns how much worse the change's median is than the base's (as a
// share of the base median, negative when better) and the verdict: a
// regression beyond the bound, unresolved when the base's own spread is
// wider than the bound, else within bound.
func judge(d metricDef, base, change metricSpread) (string, float64) {
	worse := (change.Median - base.Median) / math.Abs(base.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(base) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	}
	return "within bound", worse
}

// scanLines calls fn for every line of r (without the newline) with the
// byte offset just past it.
func scanLines(r io.Reader, fn func(line []byte, end int64) bool) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return errors.New("journal line longer than 64 KiB")
		}
		if len(line) > 0 {
			off += int64(len(line))
			if !fn(line, off) {
				return nil
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
