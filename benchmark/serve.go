package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/serve"
	"siot/internal/sim"
)

// The serve workloads run the engine with siot-serve's flag defaults on the
// canonical benchmark world: the run's seed drives only the queries and
// events the engine receives. (serve.New draws the task universe from the
// world seed, and a per-seed universe changes how much work a search does.)
const (
	serveWorldSeed = benchnet.Seed
	serveNodes     = 100_000
	serveTheta     = 0.3
	serveModel     = "aggressive"
	ingestDeadline = time.Second

	readClients = 2
	readZipfS   = 1.1
	// Share of queries whose trustee is a direct neighbor of the trustor;
	// the rest ask about a neighbor's neighbor.
	neighborShare = 0.25

	mixedQueryRate    = 5000 // queries per second, over mixedIssuers goroutines
	mixedIssuers      = 2
	mixedEventRate    = 500 // events per second
	mixedObserveShare = 0.8

	readReplayQueries = 200_000 // journal prefix serve-read replays
	// serve-mixed replays the journal up to its 5th epoch line. Replay keeps
	// every epoch it re-captures resident (~150 MB each at 100k nodes), so
	// the prefix is bounded by memory, not by the run length.
	mixedReplayEpochs = 4
	fingerprintProbes = 1000   // queries whose answers enter the fingerprint
	searchProbes      = 20_000 // traced probe searches per serve run
)

func serveNodeCount(cfg runConfig) int {
	if cfg.short {
		return 1000
	}
	return serveNodes
}

// journalFile is the engine's journal: a real file whose Write and Sync
// calls the benchmark timestamps, so fsync latency, events per group
// commit, republish time, and when each epoch line reached the file can be
// read as the journal sees them.
type journalFile struct {
	f    *os.File
	mu   sync.Mutex
	lane *lane

	epochMarks, eventMarks marker
	// epochWritten[id] is when epoch id's line was written. The engine's
	// writer goroutine applies and acknowledges a batch before it captures,
	// so the first epoch line written after an event's ack belongs to the
	// first epoch that includes the event.
	epochWritten []time.Time

	bytes      int64
	eventLines int64
	syncs      int64
	fsync      samples // ms
	republish  samples // ms: end of the last sync to the write carrying the next epoch line
	lastSync   time.Time
}

// marker counts occurrences of a byte string in a stream of writes,
// including occurrences split across two writes.
type marker struct {
	text []byte
	tail []byte // the last len(text)-1 bytes written
}

func newMarker(text string) marker { return marker{text: []byte(text)} }

func (m *marker) count(p []byte) int {
	n := bytes.Count(p, m.text)
	k := len(m.text) - 1
	if len(m.tail) > 0 {
		// Only an occurrence straddling the boundary can fit in the joint.
		joint := append(slices.Clip(m.tail), p[:min(k, len(p))]...)
		n += bytes.Count(joint, m.text)
	}
	m.tail = append(m.tail, p...)
	m.tail = append(m.tail[:0], m.tail[max(0, len(m.tail)-k):]...)
	return n
}

func newJournalFile(f *os.File) *journalFile {
	return &journalFile{f: f, epochMarks: newMarker(`"kind":"epoch"`), eventMarks: newMarker(`"kind":"event"`)}
}

func (j *journalFile) Write(p []byte) (int, error) {
	n, err := j.f.Write(p)
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.bytes += int64(n)
	j.eventLines += int64(j.eventMarks.count(p))
	for range j.epochMarks.count(p) {
		j.epochWritten = append(j.epochWritten, now)
		if !j.lastSync.IsZero() {
			j.republish = append(j.republish, msSince(j.lastSync, now))
			j.lane.add("serve.republish", 0, int64(len(j.epochWritten)-1), j.lastSync, now)
			j.lastSync = time.Time{}
		}
	}
	return n, err
}

func (j *journalFile) Sync() error {
	t0 := time.Now()
	err := j.f.Sync()
	t1 := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncs++
	j.fsync = append(j.fsync, msSince(t0, t1))
	j.lane.add("serve.fsync", 0, 0, t0, t1)
	j.lastSync = t1
	return err
}

// reset zeroes the counters at the start of a timed phase and attaches the
// phase's trace lane.
func (j *journalFile) reset(l *lane) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lane = l
	j.bytes, j.eventLines, j.syncs = 0, 0, 0
	j.fsync, j.republish = nil, nil
}

func (j *journalFile) snapshot() (bytes, events, syncs int64, fsync, republish samples) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes, j.eventLines, j.syncs, j.fsync, j.republish
}

// firstEpochAfter returns the id of the first epoch whose line was written
// after t, if one has been.
func (j *journalFile) firstEpochAfter(t time.Time) (uint64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.epochWritten), func(i int) bool { return j.epochWritten[i].After(t) })
	return uint64(i), i < len(j.epochWritten)
}

// engine is one running serve engine with its journal.
type engine struct {
	*serve.Engine
	j *journalFile
}

func (e *engine) close() error {
	err := e.Close()
	if cerr := e.j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *engine) discard() {
	e.close()
	os.Remove(e.j.f.Name())
}

// startEngines builds the engine three times, each on its own journal, and
// keeps the last: setup_s is the median build. Earlier engines are closed
// and their journals deleted before the next build, so only one world is
// ever resident.
func startEngines(cfg runConfig, dir string, res *result, l *lane) (*engine, error) {
	mdl, err := core.ParseModel(serveModel)
	if err != nil {
		return nil, err
	}
	var setups samples
	var e *engine
	for i := 0; i < 3; i++ {
		if e != nil {
			e.discard()
			e = nil
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)))
		if err != nil {
			return nil, err
		}
		j := newJournalFile(f)
		sp := l.begin("serve.new", 0, int64(i))
		t0 := time.Now()
		eng, err := serve.New(serve.Config{
			Nodes: serveNodeCount(cfg), Seed: serveWorldSeed, Seeded: true, Model: mdl, Theta: serveTheta,
			EpochEvery: 256, EpochInterval: time.Second, Fsync: serve.FsyncBatch, Journal: j,
		})
		setups = append(setups, time.Since(t0).Seconds())
		l.end(sp)
		if err != nil {
			f.Close()
			return nil, err
		}
		e = &engine{Engine: eng, j: j}
	}
	res.set("setup_s", setups.quantile(0.5), "s", len(setups))
	res.fingerprint("serve nodes=%d world_seed=%d model=%s theta=%g epoch_every=256 epoch_interval=1s fsync=batch agents=%d types=%d",
		serveNodeCount(cfg), serveWorldSeed, serveModel, serveTheta, e.NumAgents(), len(e.TaskTypes()))
	return e, nil
}

type query struct {
	trustor, trustee core.AgentID
	typ              int
}

// queryGen draws trust queries: trustors Zipf-skewed over a seeded
// permutation of the agents (or uniform), trustees a neighbor or a
// neighbor's neighbor, task types uniform.
type queryGen struct {
	r     *rand.Rand
	zipf  *rand.Zipf
	perm  []core.AgentID
	n     int
	types int
	nbrs  func(core.AgentID) []core.AgentID
}

func newQueryGen(seed uint64, label string, zipf bool, stream, n, types int, nbrs func(core.AgentID) []core.AgentID) *queryGen {
	g := &queryGen{r: rng.Split(seed, "benchmark-queries:"+label, stream), n: n, types: types, nbrs: nbrs}
	if zipf {
		g.perm = make([]core.AgentID, n)
		for i, v := range rng.New(seed, "benchmark-zipf-ranks").Perm(n) {
			g.perm[i] = core.AgentID(v)
		}
		g.zipf = rand.NewZipf(g.r, readZipfS, 1, uint64(n-1))
	}
	return g
}

// engineQueries is newQueryGen over a running engine's world.
func engineQueries(e *engine, seed uint64, label string, zipf bool, stream int) *queryGen {
	return newQueryGen(seed, label, zipf, stream, e.NumAgents(), len(e.TaskTypes()), e.Neighbors)
}

func (g *queryGen) next() query {
	var x core.AgentID
	if g.zipf != nil {
		x = g.perm[g.zipf.Uint64()]
	} else {
		x = core.AgentID(g.r.IntN(g.n))
	}
	nb := g.nbrs(x)
	y := nb[g.r.IntN(len(nb))]
	if g.r.Float64() >= neighborShare {
		nn := g.nbrs(y)
		if z := nn[g.r.IntN(len(nn))]; z != x {
			y = z
		}
	}
	return query{x, y, g.r.IntN(g.types)}
}

// fingerprintAnswers asks the engine a fixed seeded query set before any
// ingest and digests the answers' exact bits: a change that alters served
// values changes the fingerprint.
func fingerprintAnswers(e *engine, seed uint64, zipf bool, res *result) ([]query, []serve.TrustResult, error) {
	g := engineQueries(e, seed, "fingerprint", zipf, 0)
	qs := make([]query, fingerprintProbes)
	ans := make([]serve.TrustResult, fingerprintProbes)
	h := fnv.New64a()
	for i := range qs {
		qs[i] = g.next()
		r, err := e.Trust(qs[i].trustor, qs[i].trustee, qs[i].typ)
		if err != nil {
			return nil, nil, err
		}
		ans[i] = r
		fmt.Fprintf(h, "%x/%v/%v,", math.Float64bits(r.TW), r.Found, r.Direct)
	}
	res.fingerprint("answers=%016x", h.Sum64())
	return qs, ans, nil
}

// serveRun is what both serve workloads share: the engine, its temp
// directory, and the epoch-0 answers the fingerprint and probe use.
type serveRun struct {
	cfg  runConfig
	dir  string
	e    *engine
	zipf bool
	fpQ  []query
	fpA  []serve.TrustResult
}

func startServe(cfg runConfig, res *result, zipf bool) (*serveRun, error) {
	dir, err := os.MkdirTemp("", "siot-benchmark-")
	if err != nil {
		return nil, err
	}
	s := &serveRun{cfg: cfg, dir: dir, zipf: zipf}
	s.e, err = startEngines(cfg, dir, res, cfg.tracer.lane())
	if err == nil {
		s.fpQ, s.fpA, err = fingerprintAnswers(s.e, cfg.seed, zipf, res)
	}
	if err != nil {
		s.cleanup()
		return nil, err
	}
	return s, nil
}

func (s *serveRun) cleanup() {
	if s.e != nil {
		s.e.close()
	}
	os.RemoveAll(s.dir)
}

// finish closes the engine, runs the traced probe on a rebuilt world, and
// replays the journal prefix stop selects.
func (s *serveRun) finish(res *result, ls *layerStats, stop func(kind string, c lineCounts) bool) error {
	defer s.cleanup()
	path := s.e.j.f.Name()
	err := s.e.close()
	s.e = nil
	if err != nil {
		return err
	}
	if s.cfg.tracer != nil {
		if err := serveProbe(s.cfg, ls, s.fpQ, s.fpA, s.zipf, res); err != nil {
			return err
		}
	}
	return replayPrefix(path, res, stop)
}

// serveProbe rebuilds the served world through the public layer functions
// (the recipe serve.New follows), times capture and memo the way the
// engine's republish runs them, and answers sample queries by the
// direct-edge lookup or FindViewModelInto, timing each search. It checks
// that this decomposition reproduces the engine's epoch-0 answers bit for
// bit.
func serveProbe(cfg runConfig, ls *layerStats, fpQ []query, fpA []serve.TrustResult, zipf bool, res *result) error {
	mdl, err := core.ParseModel(serveModel)
	if err != nil {
		return err
	}
	l := cfg.tracer.lane()
	root := l.begin("benchmark.probe", 0, 0)
	defer l.end(root)
	workers := runtime.GOMAXPROCS(0)
	w := recipe{
		profile: benchnet.Profile(serveNodeCount(cfg)), seed: serveWorldSeed, theta: serveTheta, workers: workers,
		universe: func(p *sim.Population) *rand.Rand { return p.Rand("serve-setup") },
	}.build(l, ls, root.id)
	norm := w.pop.Config().Update.Norm
	pool := core.NewArenaPool()
	var view *core.RoundView
	var memo *core.EdgeMemo
	for i := 0; i < 3; i++ {
		if view != nil {
			memo.Release()
			view.Release()
		}
		view = captureEpoch(w, workers, pool, l, ls, root.id, int64(i))
		t0 := time.Now()
		memo = core.NewEdgeMemoPooled(view.TrustView, norm, workers, pool)
		memo.RequireModel(mdl, w.setup.Universe.Tasks)
		t1 := time.Now()
		l.add("core.memo", root.id, int64(i), t0, t1)
		ls.memo = append(ls.memo, msSince(t0, t1))
	}
	defer view.Release()
	defer memo.Release()
	s := w.pop.Searcher(w.setup.MaxDepth, w.setup.Omega1, w.setup.Omega2)
	var sr core.SearchResult
	answer := func(q query, timed bool) serve.TrustResult {
		t := w.setup.Universe.Tasks[q.typ]
		if edge, ok := view.EdgeIndex(q.trustor, q.trustee); ok {
			if tw, ok := view.BestTW(edge, t); ok {
				return serve.TrustResult{TW: tw, Found: true, Direct: true}
			}
		}
		a := time.Now()
		s.FindViewModelInto(&sr, view.TrustView, memo, q.trustor, t, mdl)
		if timed {
			b := time.Now()
			ls.search.add(b.Sub(a))
			l.add("core.search", root.id, 0, a, b)
			ls.searches++
			ls.inquired += int64(sr.Inquired)
			ls.cands += int64(len(sr.Candidates))
		}
		for _, c := range sr.Candidates {
			if c.ID == q.trustee {
				return serve.TrustResult{TW: c.TW, Found: true}
			}
		}
		return serve.TrustResult{}
	}
	mismatches := 0
	for i, q := range fpQ {
		want := fpA[i]
		want.Epoch = 0
		if answer(q, false) != want {
			mismatches++
		}
	}
	res.check("probe-decomposition", mismatches == 0,
		"%d of %d epoch-0 answers reproduced by capture + memo + search from outside", len(fpQ)-mismatches, len(fpQ))
	g := newQueryGen(cfg.seed, "probe", zipf, 0, len(w.pop.Agents), len(w.setup.Universe.Tasks), w.pop.Neighbors)
	for i := 0; i < searchProbes; i++ {
		answer(g.next(), true)
	}
	return nil
}

// lineCounts counts journal lines by kind (the header excluded).
type lineCounts struct{ events, epochs, queries uint64 }

func lineKind(line []byte) string {
	const key = `"kind":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// replayPrefix verifies the journal prefix ending just before the first
// line for which stop returns true: serve.Replay must accept it and
// reproduce exactly as many events, epochs and queries as the prefix holds.
func replayPrefix(path string, res *result, stop func(kind string, c lineCounts) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var c lineCounts
	var cut int64
	err = scanLines(f, func(line []byte, end int64) bool {
		kind := lineKind(line)
		if stop(kind, c) {
			return false
		}
		switch kind {
		case "event":
			c.events++
		case "epoch":
			c.epochs++
		case "query":
			c.queries++
		}
		cut = end
		return true
	})
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	got, err := serve.Replay(io.LimitReader(f, cut))
	ok := err == nil && got.Events == c.events && got.Epochs == c.epochs && got.Queries == c.queries
	res.check("replay-prefix", ok, "prefix of %d bytes holds %d events, %d epochs, %d queries; replay reproduced %d, %d, %d (err %v)",
		cut, c.events, c.epochs, c.queries, got.Events, got.Epochs, got.Queries, err)
	return nil
}

// readPhase is serve-read's closed loop: each client sends its next query
// as soon as the previous answer returns.
type readPhase struct {
	lat, direct, transitive *hist
	ops, errs, directN      int64
	elapsed                 time.Duration
}

func runReadPhase(e *engine, gens []*queryGen, d time.Duration, tr *tracer) readPhase {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]readPhase, len(gens))
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := tr.lane()
			root := l.begin("benchmark.client", 0, int64(c))
			p := readPhase{lat: new(hist), direct: new(hist), transitive: new(hist)}
			g := gens[c]
			for now := time.Now(); now.Before(deadline); {
				q := g.next()
				t0 := time.Now()
				r, err := e.Trust(q.trustor, q.trustee, q.typ)
				now = time.Now()
				lat := now.Sub(t0)
				p.ops++
				if err != nil {
					p.errs++
					continue
				}
				p.lat.add(lat)
				if r.Direct {
					p.directN++
					p.direct.add(lat)
					l.add("serve.trust.direct", root.id, p.ops, t0, now)
				} else {
					p.transitive.add(lat)
					l.add("serve.trust.transitive", root.id, p.ops, t0, now)
				}
			}
			l.end(root)
			parts[c] = p
		}(c)
	}
	wg.Wait()
	out := readPhase{lat: new(hist), direct: new(hist), transitive: new(hist), elapsed: time.Since(start)}
	for _, p := range parts {
		out.lat.merge(p.lat)
		out.direct.merge(p.direct)
		out.transitive.merge(p.transitive)
		out.ops += p.ops
		out.errs += p.errs
		out.directN += p.directN
	}
	return out
}

func runServeRead(cfg runConfig, res *result) error {
	s, err := startServe(cfg, res, true)
	if err != nil {
		return err
	}
	e := s.e
	res.fingerprint("schedule=closed-loop clients=%d zipf_s=%g neighbor_share=%g", readClients, readZipfS, neighborShare)
	gens := make([]*queryGen, readClients)
	for c := range gens {
		gens[c] = engineQueries(e, cfg.seed, "read", true, c)
	}
	runReadPhase(e, gens, cfg.warmup, nil)

	var p readPhase
	heapMB, overhead := math.NaN(), math.NaN()
	if cfg.tracer == nil {
		e.j.reset(nil)
		hs := startHeapSampler()
		p = runReadPhase(e, gens, cfg.measure, nil)
		heapMB = hs.stopMB()
	} else {
		plain := runReadPhase(e, gens, cfg.measure/2, nil)
		e.j.reset(cfg.tracer.lane())
		p = runReadPhase(e, gens, cfg.measure/2, cfg.tracer)
		overhead = 100 * (p.lat.quantile(0.5)/plain.lat.quantile(0.5) - 1)
	}
	jbytes, _, _, _, _ := e.j.snapshot()
	epochs := e.Stats().Epochs
	ls := newLayerStats()
	err = s.finish(res, ls, func(kind string, c lineCounts) bool {
		return kind == "query" && c.queries == readReplayQueries
	})
	if err != nil {
		return err
	}

	res.Attempted, res.Failed = int(p.ops), int(p.errs)
	n := int(p.lat.n)
	res.setTiming("latency", func(q float64) float64 { return p.lat.quantile(q) / 1e6 }, n, "ms")
	res.set("ops_per_s", float64(p.ops)/p.elapsed.Seconds(), "1/s", n)
	if cfg.tracer == nil {
		res.set("heap_live_peak_mb", heapMB, "MB", 0)
	}
	res.set("serve.trust_direct_us_p50", p.direct.quantile(0.5)/1e3, "us", int(p.direct.n))
	res.set("serve.trust_transitive_us_p50", p.transitive.quantile(0.5)/1e3, "us", int(p.transitive.n))
	res.set("serve.trust_transitive_us_p99", p.transitive.quantile(0.99)/1e3, "us", int(p.transitive.n))
	res.set("serve.direct_share", float64(p.directN)/float64(max(p.ops-p.errs, 1)), "ratio", 0)
	res.set("serve.journal_bytes_per_query", float64(jbytes)/float64(max(p.ops, 1)), "B", 0)
	res.set("serve.epochs", float64(epochs), "count", 0)
	if cfg.tracer != nil {
		ls.report(res)
		res.set("benchmark.trace_overhead_pct", overhead, "%", 0)
	}
	return nil
}

// eventGen draws ingest events: trustors uniform, trustees a random social
// neighbor (the only trustees an event may name), task types uniform;
// observations with random outcomes, recommendations with the seeding
// pipeline's expectation shape.
type eventGen struct {
	r     *rand.Rand
	n     int
	types int
	nbrs  func(core.AgentID) []core.AgentID
}

func (g *eventGen) next() serve.Event {
	x := core.AgentID(g.r.IntN(g.n))
	nb := g.nbrs(x)
	ev := serve.Event{Trustor: x, Trustee: nb[g.r.IntN(len(nb))], Type: g.r.IntN(g.types)}
	if g.r.Float64() < mixedObserveShare {
		ev.Op = serve.OpObserve
		ev.Outcome = core.Outcome{Success: g.r.Float64() < 0.7, Gain: g.r.Float64(), Damage: g.r.Float64(), Cost: 0.1 * g.r.Float64()}
		ev.Abusive = g.r.Float64() < 0.1
	} else {
		s := g.r.Float64()
		ev.Op = serve.OpRecommend
		ev.Exp = core.Expectation{S: s, G: s, D: 1 - s}
	}
	return ev
}

// mixedPhase is serve-mixed's open loop: queries and events are due on a
// fixed schedule whatever the engine does, and every latency counts from
// the due time, so a stall also charges the requests queued behind it.
type mixedPhase struct {
	ack, fresh, visible samples // ms from due (ack, visible) or from ack (fresh)
	query, late         *hist   // ns from due; ns the generator ran late
	events, eventErrs   int
	queries, queryErrs  int
	directN             int
	queueMax            int
	span                time.Duration // from the phase start until the last recorded op completed
}

// eventRec is one scheduled event's outcome, written by its own goroutine.
type eventRec struct {
	err            error
	due, sent, ack time.Time
}

// epochSeen is a query that returned a newer epoch than any query before it.
type epochSeen struct {
	id uint64
	at time.Time
}

// epochWatch records when queries first return each newer epoch, so the
// time a write became visible can be read off after the phase.
type epochWatch struct {
	next atomic.Uint64 // one past the newest epoch id seen
	mu   sync.Mutex
	seen []epochSeen // increasing in id and time
}

func (w *epochWatch) observe(id uint64, at time.Time) {
	if id < w.next.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if id >= w.next.Load() {
		w.seen = append(w.seen, epochSeen{id, at})
		w.next.Store(id + 1)
	}
}

// visibleAt returns when a query first returned epoch id or a later one.
func (w *epochWatch) visibleAt(id uint64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := sort.Search(len(w.seen), func(i int) bool { return w.seen[i].id >= id })
	if i == len(w.seen) {
		return time.Time{}, false
	}
	return w.seen[i].at, true
}

// openLoop calls op for every due time start + (k*stride+offset)*period
// before end, in order, sleeping until each is due, until op returns false.
// The schedule never shifts: when op stalls, the ops behind it are issued
// late, and their latency, counted from the due time, includes that wait.
func openLoop(start, end time.Time, period time.Duration, stride, offset int, op func(k int, due time.Time) bool) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k*stride+offset) * period)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !op(k, due) {
			return
		}
	}
}

func runMixedPhase(e *engine, qgens []*queryGen, egen *eventGen, d time.Duration, tr *tracer) mixedPhase {
	const (
		queryPeriod = time.Second / mixedQueryRate
		eventPeriod = time.Second / mixedEventRate
	)
	start := time.Now()
	end := start.Add(d)
	evs := make([]eventRec, int(d/eventPeriod)+1)
	var watch epochWatch
	// The time trigger republishes within EpochInterval of the last event,
	// so 5 s bounds the wait for the final epoch even under load.
	drainUntil := end.Add(5 * time.Second)
	var drained atomic.Bool

	type issuerStats struct {
		query, late      *hist
		n, errs, directN int
		last             time.Time // when the last recorded query completed
	}
	parts := make([]issuerStats, len(qgens))
	var wg sync.WaitGroup
	for g := range qgens {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := tr.lane()
			st := issuerStats{query: new(hist), late: new(hist)}
			openLoop(start, end, queryPeriod, len(qgens), g, func(k int, due time.Time) bool {
				q := qgens[g].next()
				sent := time.Now()
				st.late.add(sent.Sub(due))
				r, err := e.Trust(q.trustor, q.trustee, q.typ)
				done := time.Now()
				st.n++
				if err != nil {
					st.errs++
					return true
				}
				st.query.add(done.Sub(due))
				st.last = done
				l.add("serve.trust", 0, int64(k), sent, done)
				if r.Direct {
					st.directN++
				}
				watch.observe(r.Epoch, done)
				return true
			})
			openLoop(end, drainUntil, queryPeriod, len(qgens), g, func(int, time.Time) bool {
				q := qgens[g].next()
				if r, err := e.Trust(q.trustor, q.trustee, q.typ); err == nil {
					watch.observe(r.Epoch, time.Now())
				}
				return !drained.Load()
			})
			parts[g] = st
		}(g)
	}

	var qmax atomic.Int64
	stopDepth := make(chan struct{})
	depthDone := make(chan struct{})
	go func() {
		defer close(depthDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopDepth:
				return
			case <-t.C:
				qmax.Store(max(qmax.Load(), int64(e.Stats().QueueDepth)))
			}
		}
	}()

	// Each event runs on its own goroutine, as independent clients would;
	// the schedule bounds their number to rate × phase length.
	var evWG, drainWG sync.WaitGroup
	ingest := func(wg *sync.WaitGroup, rec *eventRec, due time.Time) {
		ev := egen.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
			defer cancel()
			r := eventRec{due: due, sent: time.Now()}
			r.err = e.IngestCtx(ctx, ev)
			r.ack = time.Now()
			if rec != nil {
				*rec = r
			}
		}()
	}
	openLoop(start, end, eventPeriod, 1, 0, func(k int, due time.Time) bool {
		ingest(&evWG, &evs[k], due)
		return true
	})
	// Past the window the ingest schedule goes on, unrecorded, so the last
	// recorded events meet the same republish cadence as the rest instead
	// of waiting out the time trigger of an idle writer.
	drainEvents := make(chan struct{})
	go func() {
		defer close(drainEvents)
		openLoop(end, drainUntil, eventPeriod, 1, 0, func(int, time.Time) bool {
			ingest(&drainWG, nil, time.Now())
			return !drained.Load()
		})
	}()
	evWG.Wait()
	var lastAck time.Time
	for _, ev := range evs {
		if ev.err == nil && ev.ack.After(lastAck) {
			lastAck = ev.ack
		}
	}
	for time.Now().Before(drainUntil) {
		if id, ok := e.j.firstEpochAfter(lastAck); ok && watch.next.Load() > id {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drained.Store(true)
	wg.Wait()
	<-drainEvents
	drainWG.Wait()
	close(stopDepth)
	<-depthDone

	out := mixedPhase{query: new(hist), late: new(hist), queueMax: int(qmax.Load())}
	last := start
	for _, st := range parts {
		out.query.merge(st.query)
		out.late.merge(st.late)
		out.queries += st.n
		out.queryErrs += st.errs
		out.directN += st.directN
		if st.last.After(last) {
			last = st.last
		}
	}
	l := tr.lane()
	for k, ev := range evs {
		if ev.due.IsZero() {
			continue // the schedule ended before this slot
		}
		out.events++
		if ev.err != nil {
			out.eventErrs++
			continue
		}
		out.ack = append(out.ack, msSince(ev.due, ev.ack))
		l.add("serve.ingest", 0, int64(k), ev.sent, ev.ack)
		if ev.ack.After(last) {
			last = ev.ack
		}
		if id, ok := e.j.firstEpochAfter(ev.ack); ok {
			if at, ok := watch.visibleAt(id); ok {
				out.fresh = append(out.fresh, msSince(ev.ack, at))
				out.visible = append(out.visible, msSince(ev.due, at))
			}
		}
	}
	out.span = last.Sub(start)
	return out
}

func runServeMixed(cfg runConfig, res *result) error {
	s, err := startServe(cfg, res, false)
	if err != nil {
		return err
	}
	e := s.e
	res.fingerprint("schedule=open-loop query_rate=%d issuers=%d event_rate=%d observe_share=%g deadline=%s",
		mixedQueryRate, mixedIssuers, mixedEventRate, mixedObserveShare, ingestDeadline)
	qgens := make([]*queryGen, mixedIssuers)
	for g := range qgens {
		qgens[g] = engineQueries(e, cfg.seed, "mixed", false, g)
	}
	egen := &eventGen{r: rng.New(cfg.seed, "benchmark-events"), n: e.NumAgents(), types: len(e.TaskTypes()), nbrs: e.Neighbors}
	runMixedPhase(e, qgens, egen, cfg.warmup, nil)

	var p mixedPhase
	heapMB, overhead := math.NaN(), math.NaN()
	before := e.Stats()
	if cfg.tracer == nil {
		e.j.reset(nil)
		hs := startHeapSampler()
		p = runMixedPhase(e, qgens, egen, cfg.measure, nil)
		heapMB = hs.stopMB()
	} else {
		plain := runMixedPhase(e, qgens, egen, cfg.measure/2, nil)
		before = e.Stats()
		e.j.reset(cfg.tracer.lane())
		p = runMixedPhase(e, qgens, egen, cfg.measure/2, cfg.tracer)
		overhead = 100 * (p.visible.quantile(0.5)/plain.visible.quantile(0.5) - 1)
	}
	after := e.Stats()
	jbytes, jevents, syncs, fsync, republish := e.j.snapshot()
	ls := newLayerStats()
	err = s.finish(res, ls, func(kind string, c lineCounts) bool {
		return kind == "epoch" && c.epochs == mixedReplayEpochs
	})
	if err != nil {
		return err
	}

	res.Attempted = p.events + p.queries
	res.Failed = p.eventErrs + p.queryErrs
	res.setTiming("latency", p.visible.quantile, len(p.visible), "ms")
	res.set("ops_per_s", float64(p.queries+p.events-p.queryErrs-p.eventErrs)/p.span.Seconds(), "1/s", 0)
	if cfg.tracer == nil {
		res.set("heap_live_peak_mb", heapMB, "MB", 0)
	}
	res.setTiming("ack", p.ack.quantile, len(p.ack), "ms")
	res.setTiming("fresh", p.fresh.quantile, len(p.fresh), "ms")
	nq := int(p.query.n)
	res.set("mixed_query_p50_ms", p.query.quantile(0.5)/1e6, "ms", nq)
	res.set("mixed_query_p99_ms", p.query.quantile(0.99)/1e6, "ms", nq)
	res.set("benchmark.gen_late_p50_ms", p.late.quantile(0.5)/1e6, "ms", int(p.late.n))
	res.set("benchmark.gen_late_p99_ms", p.late.quantile(0.99)/1e6, "ms", int(p.late.n))
	res.set("serve.fsync_ms_p50", fsync.quantile(0.5), "ms", len(fsync))
	res.set("serve.fsync_ms_p99", fsync.quantile(0.99), "ms", len(fsync))
	res.set("serve.events_per_sync", float64(jevents)/float64(max(syncs, 1)), "count", int(syncs))
	res.set("serve.republish_ms_p50", republish.quantile(0.5), "ms", len(republish))
	res.set("serve.epochs", float64(after.Epochs-before.Epochs), "count", 0)
	res.set("serve.shed", float64(after.ShedTotal), "count", 0)
	res.set("serve.queue_depth_max", float64(p.queueMax), "count", 0)
	res.set("serve.journal_bytes_per_query", float64(jbytes)/float64(max(p.queries, 1)), "B", 0)
	res.set("serve.direct_share", float64(p.directN)/float64(max(p.queries-p.queryErrs, 1)), "ratio", 0)
	if cfg.tracer != nil {
		ls.report(res)
		res.set("benchmark.trace_overhead_pct", overhead, "%", 0)
	}
	return nil
}
