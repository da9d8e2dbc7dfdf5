// Package serve is the trust-as-a-service engine: a long-lived online query
// layer mounted on the frozen-epoch seam the simulation built. It ingests
// observation/recommendation events concurrently into the agents' stores
// through one batching writer goroutine, answers trust(trustor, trustee,
// task) queries lock-free from the current epoch (RoundView + EdgeMemo, one
// acquire/release per request, so a query straddling a swap keeps a
// consistent snapshot), re-captures and atomically publishes a fresh
// epoch on a count- or time-triggered cadence, and appends every ingested
// event and served value to an append-only trust-assertion journal that
// Replay reproduces byte-for-byte.
//
// The serving seam is crash-safe: IngestCtx acknowledges an event only after
// the group-commit fsync covering its journal line returns (FsyncBatch), so
// an acknowledged event is on disk; Recover rebuilds the engine from a
// journal prefix after a crash, tolerating one torn final line; a full
// queue sheds with ErrOverloaded instead of blocking forever; and a failing
// disk flips the engine into a degraded mode that keeps answering queries
// from the last good epoch.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"siot/internal/benchnet"
	"siot/internal/core"
	"siot/internal/sim"
	"siot/internal/socialgen"
	"siot/internal/task"
)

// Config parameterizes an Engine. The world-construction fields (Net, Nodes,
// Seed, Chars, Model, Seeded, Theta) are recorded in the journal header —
// they fully determine the initial state, so Replay rebuilds the identical
// world from the header alone. The operational fields (cadence, queue and
// batch sizes, workers, fsync mode) affect only scheduling and durability,
// never values.
type Config struct {
	// Net names a calibrated socialgen profile ("facebook", "gplus",
	// "twitter"); Nodes > 0 instead selects the canonical benchmark profile
	// at that node count (benchnet.Profile). Defaults to "facebook".
	Net   string
	Nodes int
	// Seed drives every random choice: network generation, role assignment,
	// task universe, and experience seeding.
	Seed uint64
	// Chars is the task-characteristic alphabet size (default 5; the
	// universe holds 2*Chars task types).
	Chars int
	// Model is the trust model used for non-direct answers — any registered
	// core.TrustModel, including the paper's three methods; nil serves
	// core.Traditional. The journal header records its name.
	Model core.TrustModel
	// Seeded pre-populates experience records (sim.SeedExperience), so the
	// engine starts with answerable queries instead of a cold store.
	Seeded bool
	// Theta is the reverse-evaluation threshold installed on every trustee.
	Theta float64
	// EpochEvery re-captures after that many applied events (default 256);
	// EpochInterval, when positive, also re-captures on a timer if events
	// were applied since the last capture.
	EpochEvery    int
	EpochInterval time.Duration
	// BatchSize bounds how many queued events the writer applies per wakeup
	// between capture checks (default 128); one fsync acknowledges the whole
	// batch. QueueSize is the ingest buffer (default 1024); IngestCtx sheds
	// with ErrOverloaded when it stays full past the context deadline.
	BatchSize int
	QueueSize int
	// Workers bounds capture/memo parallelism (default GOMAXPROCS). Results
	// are bit-identical at every worker count.
	Workers int
	// Journal, when non-nil, receives the trust-assertion journal. When it
	// implements Sync() error (an *os.File, a faultfs.File), Fsync governs
	// when the journal syncs it; otherwise sync degrades to a flush.
	Journal io.Writer
	// Fsync selects the journal durability mode (default FsyncBatch: one
	// sync per applied batch and per epoch line).
	Fsync FsyncMode
}

// withDefaults fills the zero values. Zero is the only value that asks for
// a default: checkCounts rejects a negative count before this runs.
func (c Config) withDefaults() Config {
	if c.Net == "" && c.Nodes == 0 {
		c.Net = "facebook"
	}
	if c.Chars == 0 {
		c.Chars = 5
	}
	if c.EpochEvery == 0 {
		c.EpochEvery = 256
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	if c.QueueSize == 0 {
		c.QueueSize = 1024
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Model == nil {
		c.Model = core.Traditional
	}
	return c
}

// world is the deterministic state a Config builds: the population, its
// task universe, and a searcher over it. The engine, Replay, and Recover
// all construct worlds through this one path, which is what makes the
// replay and recovery contracts hold.
type world struct {
	pop      *sim.Population
	setup    sim.TransitivitySetup
	searcher *core.Searcher
}

// Validate reports whether c describes a world New can build, without
// building it: Theta must be finite, since the journal header could not
// record it, no count or interval may be negative, and the network profile
// Net or Nodes selects must exist and be valid. New makes the same checks
// before it builds or writes anything; siot-serve runs Validate before it
// opens its journal.
func (c Config) Validate() error {
	if err := c.checkCounts(); err != nil {
		return err
	}
	_, err := c.withDefaults().profile()
	return err
}

// checkCounts rejects a negative Chars, EpochEvery, BatchSize, QueueSize or
// Workers, naming the field, so that none is taken for its default.
func (c Config) checkCounts() error {
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Chars", c.Chars}, {"EpochEvery", c.EpochEvery}, {"BatchSize", c.BatchSize}, {"QueueSize", c.QueueSize}, {"Workers", c.Workers}} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s %d is negative", f.name, f.v)
		}
	}
	return nil
}

// profile validates a (defaulted) config and returns the network profile it
// selects.
func (c Config) profile() (socialgen.Profile, error) {
	if math.IsNaN(c.Theta) || math.IsInf(c.Theta, 0) {
		return socialgen.Profile{}, fmt.Errorf("serve: theta %v is not finite", c.Theta)
	}
	if c.Nodes < 0 {
		return socialgen.Profile{}, fmt.Errorf("serve: node count %d is negative", c.Nodes)
	}
	if c.EpochInterval < 0 {
		return socialgen.Profile{}, fmt.Errorf("serve: epoch interval %v is negative", c.EpochInterval)
	}
	var profile socialgen.Profile
	if c.Nodes > 0 {
		profile = benchnet.Profile(c.Nodes)
	} else {
		var err error
		if profile, err = socialgen.ProfileByName(c.Net); err != nil {
			return socialgen.Profile{}, fmt.Errorf("serve: %w", err)
		}
	}
	if err := profile.Validate(); err != nil {
		return socialgen.Profile{}, fmt.Errorf("serve: %w", err)
	}
	return profile, nil
}

// buildWorld constructs the world of a (defaulted) config.
func buildWorld(cfg Config) (*world, error) {
	profile, err := cfg.profile()
	if err != nil {
		return nil, err
	}
	net := socialgen.Generate(profile, cfg.Seed)
	pcfg := sim.DefaultPopulationConfig(cfg.Seed)
	pcfg.Theta = cfg.Theta
	pcfg.Parallelism = cfg.Workers
	pop := sim.NewPopulation(net, pcfg)
	setup := sim.DefaultTransitivitySetup(cfg.Chars, pop.Rand("serve-setup"))
	if cfg.Seeded {
		sim.SeedExperience(pop, setup, cfg.Seed)
	}
	return &world{
		pop:      pop,
		setup:    setup,
		searcher: pop.Searcher(setup.MaxDepth, setup.Omega1, setup.Omega2),
	}, nil
}

// checkIDs rejects a trustor, trustee or task type outside the world: the
// one range check behind ingested events, served queries, and every
// journaled line Replay and Recover read back.
func (w *world) checkIDs(trustor, trustee core.AgentID, typ int) error {
	if n := core.AgentID(len(w.pop.Agents)); trustor < 0 || trustor >= n || trustee < 0 || trustee >= n {
		return fmt.Errorf("agent id out of range [0, %d): trustor %d, trustee %d", n, trustor, trustee)
	}
	if n := len(w.setup.Universe.Tasks); typ < 0 || typ >= n {
		return fmt.Errorf("task type %d out of range [0, %d)", typ, n)
	}
	return nil
}

// validate is the only event check: IngestCtx runs it before queueing,
// and Replay and Recover before re-applying a journaled event, so the
// journal can hold nothing IngestCtx would refuse. Records live only along
// social edges (the capture arenas are per-edge), so both event kinds
// require trustor and trustee to be social neighbors.
func (w *world) validate(ev *eventLine) error {
	trustor, trustee := core.AgentID(ev.Trustor), core.AgentID(ev.Trustee)
	if err := w.checkIDs(trustor, trustee, ev.Type); err != nil {
		return err
	}
	if trustor == trustee {
		return fmt.Errorf("trustor and trustee are both %d", trustor)
	}
	if _, ok := slices.BinarySearch(w.pop.Neighbors(trustor), trustee); !ok {
		return fmt.Errorf("%d and %d are not social neighbors", trustor, trustee)
	}
	switch ev.Op {
	case "observe":
		for _, v := range [...]float64{ev.Gain, ev.Damage, ev.Cost} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("outcome component %v is not a finite non-negative value", v)
			}
		}
	case "recommend":
		return core.Expectation{S: ev.S, G: ev.G, D: ev.D, C: ev.C}.Validate()
	default:
		return fmt.Errorf("unknown event op %q", ev.Op)
	}
	return nil
}

// apply mutates the stores with one validated event: the only store write
// of the engine's writer goroutine, Replay and Recover alike.
func (w *world) apply(ev *eventLine) {
	trustor, trustee := core.AgentID(ev.Trustor), core.AgentID(ev.Trustee)
	tk := w.setup.Universe.Tasks[ev.Type]
	switch ev.Op {
	case "observe":
		out := core.Outcome{Success: ev.Success, Gain: ev.Gain, Damage: ev.Damage, Cost: ev.Cost}
		w.pop.Agent(trustor).Store.Observe(trustee, tk, out, core.PerfectEnv())
		w.pop.Agent(trustee).Store.ObserveUsage(trustor, ev.Abusive)
	case "recommend":
		exp := core.Expectation{S: ev.S, G: ev.G, D: ev.D, C: ev.C}
		w.pop.Agent(trustor).Store.Seed(trustee, tk, exp)
	}
}

// EventOp selects what an ingested event does to the stores.
type EventOp int

const (
	// OpObserve records a delegation outcome: the trustor observes the
	// trustee on a task, and the trustee logs how the trustor used its
	// resources (the reverse-evaluation counter).
	OpObserve EventOp = iota
	// OpRecommend seeds the trustor's expectation about the trustee on a
	// task — third-party experience arriving over the social edge.
	OpRecommend
)

// Event is one ingestable store mutation. Tasks are referenced by index
// into the engine's task universe (TaskTypes), which the journal header
// pins, so an event is fully described by plain numbers.
type Event struct {
	Op      EventOp
	Trustor core.AgentID
	Trustee core.AgentID
	Type    int // task-type index into the universe
	// OpObserve payload.
	Outcome core.Outcome
	Abusive bool
	// OpRecommend payload.
	Exp core.Expectation
}

// line renders the event as its journal line, Seq unset: the form an event
// travels in from IngestCtx on. Only the op's own payload is kept; an
// unknown op keeps its number, which validate refuses.
func (ev Event) line() eventLine {
	l := eventLine{Trustor: int32(ev.Trustor), Trustee: int32(ev.Trustee), Type: ev.Type}
	switch ev.Op {
	case OpObserve:
		l.Op = "observe"
		l.Success = ev.Outcome.Success
		l.Gain, l.Damage, l.Cost = ev.Outcome.Gain, ev.Outcome.Damage, ev.Outcome.Cost
		l.Abusive = ev.Abusive
	case OpRecommend:
		l.Op = "recommend"
		l.S, l.G, l.D, l.C = ev.Exp.S, ev.Exp.G, ev.Exp.D, ev.Exp.C
	default:
		l.Op = strconv.Itoa(int(ev.Op))
	}
	return l
}

// TrustResult is one served trust value. Epoch identifies the snapshot it
// was computed from; Direct reports whether the trustor's own experience
// answered (otherwise the value came from the model's transitive search).
type TrustResult struct {
	TW     float64
	Found  bool
	Direct bool
	Epoch  uint64
}

// ErrClosed is returned by IngestCtx and Trust after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrOverloaded is returned by IngestCtx when the ingest queue stays full
// past the context's deadline — the shed policy. Callers map it to HTTP 429
// with a Retry-After.
var ErrOverloaded = errors.New("serve: ingest queue full")

// ErrDegraded is returned by IngestCtx once a journal write or sync, or an
// epoch capture, has failed: the engine stops accepting events (their
// durability or visibility could not be promised) but keeps answering
// queries from the last good epoch. The condition is terminal for the
// process — restart with Recover.
var ErrDegraded = errors.New("serve: engine degraded; serving from last good epoch")

// queued is one in-flight ingest: the event's journal line plus the
// channel its durable acknowledgement travels back on (buffered, so the
// writer never blocks on a departed waiter).
type queued struct {
	line eventLine
	done chan error
}

// Engine is the long-lived trust server. All methods are safe for
// concurrent use; store writes are serialized through one writer goroutine
// (the frozen-epoch capture requires quiescent stores), queries never touch
// the stores at all.
type Engine struct {
	cfg   Config
	world *world
	pool  *core.ArenaPool

	handle epochHandle
	queue  chan queued
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	journal *journal
	// capture freezes the stores into a round view, copying the rows prev
	// (the current epoch, nil for the first) still holds. It is the
	// population's RoundViewFrom; tests swap it to inject failures.
	capture func(prev *core.RoundView) (*core.RoundView, error)

	ingested       atomic.Uint64
	applied        atomic.Uint64
	queries        atomic.Uint64
	epochs         atomic.Uint64 // published epochs; ids are epochs-1
	shed           atomic.Uint64
	recovered      uint64 // events re-applied by Recover, fixed at build time
	degraded       atomic.Bool
	lastEpochNs    atomic.Int64 // wall-clock ns of the last publish (staleness)
	rowsRecaptured atomic.Int64 // store rows the last published epoch read afresh
	lat            latencyHist  // query latency
	fsyncLat       latencyHist  // journal fsync latency
	publishLat     latencyHist  // republish latency: capture + memo + epoch sync
}

// newEngine assembles an Engine around an already-built world without
// writing anything or starting the writer — New and Recover share it and
// differ only in how they seed the journal and the counters.
func newEngine(cfg Config, w *world) *Engine {
	e := &Engine{
		cfg:   cfg,
		world: w,
		pool:  core.NewArenaPool(),
		queue: make(chan queued, cfg.QueueSize),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	e.journal = newJournal(cfg.Journal, cfg.Fsync, &e.fsyncLat)
	e.capture = func(prev *core.RoundView) (*core.RoundView, error) {
		return w.pop.RoundViewFrom(prev, cfg.Workers, e.pool)
	}
	return e
}

// New builds the world, writes the journal header, publishes epoch 0, and
// starts the writer goroutine. It rejects a config Validate rejects before
// it builds or writes anything.
func New(cfg Config) (*Engine, error) {
	if err := cfg.checkCounts(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, w)
	e.journal.header(headerLine{
		Version: journalVersion,
		Net:     cfg.Net, Nodes: cfg.Nodes, Seed: cfg.Seed, Chars: cfg.Chars,
		Model: cfg.Model.Name(), Seeded: cfg.Seeded, Theta: cfg.Theta,
	})
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

// start publishes the engine's first epoch and starts the writer goroutine.
// A failed first capture or epoch sync is returned, and nothing runs.
func (e *Engine) start() error {
	if err := e.captureAndPublish(); err != nil {
		return err
	}
	go e.run()
	return nil
}

// NumAgents returns the number of agents in the served population.
func (e *Engine) NumAgents() int { return len(e.world.pop.Agents) }

// Neighbors returns the social neighbors of an agent, in ascending ID
// order — the only trustees events about this agent may reference. The
// slice is shared and must not be modified.
func (e *Engine) Neighbors(id core.AgentID) []core.AgentID { return e.world.pop.Neighbors(id) }

// TaskTypes returns the closed task universe queries and events index into.
// The slice is shared and must not be modified.
func (e *Engine) TaskTypes() []task.Task { return e.world.setup.Universe.Tasks }

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	var staleness int64
	if last := e.lastEpochNs.Load(); last > 0 {
		staleness = (time.Now().UnixNano() - last) / int64(time.Millisecond)
		if staleness < 0 {
			staleness = 0
		}
	}
	return Stats{
		Ingested:         e.ingested.Load(),
		Applied:          e.applied.Load(),
		Queries:          e.queries.Load(),
		Epochs:           e.epochs.Load(),
		QueryP50Ns:       e.lat.quantile(0.50),
		QueryP99Ns:       e.lat.quantile(0.99),
		QueueDepth:       len(e.queue),
		ShedTotal:        e.shed.Load(),
		FsyncP99Ns:       e.fsyncLat.quantile(0.99),
		RecoveredEvents:  e.recovered,
		EpochStalenessMs: staleness,
		Degraded:         e.degraded.Load(),
		RepublishP50Ns:   e.publishLat.quantile(0.50),
		RepublishP99Ns:   e.publishLat.quantile(0.99),
		RowsRecaptured:   e.rowsRecaptured.Load(),
	}
}

// IngestCtx validates, enqueues, and durably acknowledges one event: it
// returns nil only after the writer goroutine has applied the event and the
// group-commit sync covering its journal line returned. When the queue is
// full it waits only until ctx is done, then sheds the event with
// ErrOverloaded (counted in Stats.ShedTotal). A nil return is a durability
// promise — the event is applied, journaled, and (in FsyncBatch/fsyncAlways
// modes on a syncable journal) fsynced, so a crash cannot lose it. Any error
// return means the event was not acknowledged; it may still reach the
// journal if it was already queued when the engine closed, but the caller
// must assume it did not.
func (e *Engine) IngestCtx(ctx context.Context, ev Event) error {
	line := ev.line()
	if err := e.world.validate(&line); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if e.degraded.Load() {
		return ErrDegraded
	}
	q := queued{line: line, done: make(chan error, 1)}
	select {
	case e.queue <- q:
	default:
		// Queue full: wait bounded by the caller's deadline, then shed.
		select {
		case e.queue <- q:
		case <-ctx.Done():
			e.shed.Add(1)
			return ErrOverloaded
		case <-e.stop:
			return ErrClosed
		}
	}
	e.ingested.Add(1)
	select {
	case err := <-q.done:
		return err
	case <-e.done:
		// The writer exited. Its shutdown drain acknowledges everything it
		// found queued, so check for a buffered ack before giving up — an
		// event the drain missed is unacknowledged, never half-promised.
		select {
		case err := <-q.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// Trust answers trust(trustor, trustee, type) from the current epoch:
// direct experience of the trustor when it exists, otherwise the model's
// transitive search over the frozen view. The whole answer is computed
// under one epoch reference — no locks, no store access — and journaled
// with the epoch id and exact result bits. In degraded mode the current
// epoch is the last one the journal durably recorded; Stats exposes its
// staleness.
func (e *Engine) Trust(trustor, trustee core.AgentID, typeIdx int) (TrustResult, error) {
	if err := e.world.checkIDs(trustor, trustee, typeIdx); err != nil {
		return TrustResult{}, fmt.Errorf("serve: %w", err)
	}
	start := time.Now()
	ref := e.handle.acquire()
	if ref == nil {
		return TrustResult{}, ErrClosed
	}
	ep := ref.epoch()
	res, err := answer(e.world.searcher, ep.view, ep.memo, trustor, trustee, e.TaskTypes()[typeIdx], e.cfg.Model)
	res.Epoch = ep.id
	ref.release()
	if err != nil {
		return TrustResult{}, err
	}
	e.lat.observe(time.Since(start).Nanoseconds())
	e.queries.Add(1)
	e.journal.query(queryLine{
		Epoch: res.Epoch, Trustor: int32(trustor), Trustee: int32(trustee), Type: typeIdx,
		TW: res.TW, TWBits: fmt.Sprintf("%016x", math.Float64bits(res.TW)),
		Found: res.Found, Direct: res.Direct,
	})
	return res, nil
}

// answer computes one trust value from a frozen (view, memo) pair. It is
// shared verbatim by Engine.Trust and Replay — the replay contract is that
// this function over the re-captured epoch reproduces the journaled bits.
// The direct-experience channel reads the view's model-independent BestTW
// (own experience needs no transfer method); only non-direct answers go
// through the model, as one point query (Searcher.TrustInto, whose error
// it returns) rather than a listing of every candidate.
func answer(s *core.Searcher, view *core.RoundView, memo *core.EdgeMemo, trustor, trustee core.AgentID, t task.Task, m core.TrustModel) (TrustResult, error) {
	if edge, ok := view.EdgeIndex(trustor, trustee); ok {
		if tw, ok := view.BestTW(edge, t); ok {
			return TrustResult{TW: tw, Found: true, Direct: true}, nil
		}
	}
	tw, found, err := s.TrustInto(view.TrustView, memo, trustor, trustee, t, m)
	return TrustResult{TW: tw, Found: found}, err
}

// Close stops ingestion, drains and acknowledges the queue, retires the
// current epoch, and syncs the journal. A journal that lost data surfaces
// here (with the failing event seq), so the SIGTERM drain path can turn a
// partial write into a non-zero exit. Idempotent; concurrent Trust calls
// that already hold an epoch reference finish normally.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		<-e.done
		return e.journal.lastErr()
	}
	close(e.stop)
	<-e.done
	return e.journal.close()
}

// run is the writer goroutine: the only store mutator. It applies queued
// events in batches, syncs the journal once per batch (the group commit
// that acknowledges the whole batch), and re-captures the epoch on the
// configured cadence. Serializing writes here is what upholds the capture
// contract — the parallel capture panics if stores mutate mid-pass, so
// capture and apply must never overlap.
func (e *Engine) run() {
	defer close(e.done)
	var tick <-chan time.Time
	if e.cfg.EpochInterval > 0 {
		t := time.NewTicker(e.cfg.EpochInterval)
		defer t.Stop()
		tick = t.C
	}
	batch := make([]queued, 0, e.cfg.BatchSize)
	since := 0
	for {
		select {
		case q := <-e.queue:
			since += e.applyBatch(q, &batch)
			if since >= e.cfg.EpochEvery {
				e.captureAndPublish()
				since = 0
			}
		case <-tick:
			if since > 0 {
				e.captureAndPublish()
				since = 0
			}
		case <-e.stop:
			// Drain what is already queued so every waiter is acknowledged
			// one way or the other, publish, then retire. An event enqueued
			// after this drain's final empty check is never acknowledged
			// (its waiter sees the done channel close), so the drain
			// contract holds: acknowledged implies journaled.
			for {
				select {
				case q := <-e.queue:
					since += e.applyBatch(q, &batch)
					continue
				default:
				}
				break
			}
			if since > 0 {
				e.captureAndPublish()
			}
			e.handle.retire()
			return
		}
	}
}

// applyBatch collects first plus up to BatchSize-1 more already-queued
// events, applies and journals them, group-commits, and acknowledges every
// waiter with the commit result. In degraded mode nothing is applied — the
// stores must not drift further from the journal — and every waiter is
// refused with ErrDegraded. Returns how many events were applied.
func (e *Engine) applyBatch(first queued, scratch *[]queued) int {
	batch := append((*scratch)[:0], first)
	for len(batch) < e.cfg.BatchSize {
		select {
		case q := <-e.queue:
			batch = append(batch, q)
		default:
			goto collected
		}
	}
collected:
	*scratch = batch[:0]
	if e.degraded.Load() {
		for _, q := range batch {
			q.done <- ErrDegraded
		}
		return 0
	}
	for i := range batch {
		e.apply(&batch[i].line)
	}
	ack := e.journal.syncNow()
	if ack != nil {
		// The events are in the stores but their durability could not be
		// promised: refuse the acks, stop accepting events, and keep
		// serving queries from the last good epoch. The applied-but-
		// unpublished events never reach a captured epoch, so queries
		// cannot observe state the journal does not durably hold.
		e.degraded.Store(true)
		ack = fmt.Errorf("%w: %w", ErrDegraded, ack)
	}
	for _, q := range batch {
		q.done <- ack
	}
	if ack != nil {
		return 0
	}
	return len(batch)
}

// apply stamps the next sequence number on one validated event, applies
// it, and journals it, in apply order.
func (e *Engine) apply(line *eventLine) {
	line.Seq = e.applied.Add(1)
	e.world.apply(line)
	e.journal.event(*line)
}

// captureAndPublish freezes the stores into a new epoch — round view plus a
// Required memo, both copying from the current epoch every row no event
// wrote since — journals and durably syncs the epoch marker, and
// atomically swaps it in. The synced journal line precedes the publish, so
// no query can ever reference an epoch id the disk has not seen. If the
// capture or the sync fails the epoch is discarded, the engine degrades,
// and queries keep answering from the previous epoch. The error reports
// why nothing was published.
//
// The writer goroutine (or New and Recover, before it starts) is the only
// publisher, so the epoch it acquires as the predecessor is the current one
// and stays alive, arenas and memo alike, until the swap.
func (e *Engine) captureAndPublish() error {
	if e.degraded.Load() {
		return ErrDegraded
	}
	start := time.Now()
	var (
		prevView *core.RoundView
		prevMemo *core.EdgeMemo
	)
	if ref := e.handle.acquire(); ref != nil {
		defer ref.release()
		prev := ref.epoch()
		prevView, prevMemo = prev.view, prev.memo
	}
	id := e.epochs.Load()
	view, err := e.capture(prevView)
	if err != nil {
		e.degraded.Store(true)
		return fmt.Errorf("serve: capturing epoch %d: %w", id, err)
	}
	memo := core.NewEdgeMemoPooled(view.TrustView, e.world.pop.Config().Update.Norm, e.cfg.Workers, e.pool)
	memo.RequireModelFrom(prevMemo, e.cfg.Model, e.TaskTypes())
	e.journal.epoch(epochLine{ID: id, Events: e.applied.Load()})
	if err := e.journal.syncNow(); err != nil {
		memo.Release()
		view.Release()
		e.degraded.Store(true)
		return err
	}
	e.publishLat.observe(time.Since(start).Nanoseconds())
	e.rowsRecaptured.Store(int64(view.RowsRecaptured()))
	e.handle.publish(&epoch{id: id, view: view, memo: memo})
	e.epochs.Store(id + 1)
	e.lastEpochNs.Store(time.Now().UnixNano())
	return nil
}
