package core

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"siot/internal/task"
)

// Record is one trustor's accumulated experience of delegating a particular
// task type to a particular trustee: the task (with its characteristics and
// weights), the current expectation, and the number of delegations behind
// it.
//
// Record is the fat public form — stores keep CompactRecord internally and
// materialize on the way out, sharing the catalog's task slices so the
// widening allocates nothing.
type Record struct {
	Task  task.Task
	Exp   Expectation
	Count int
}

// TW returns the record's trustworthiness under eq. 18.
func (r Record) TW(n Normalizer) float64 { return r.Exp.Trustworthiness(n) }

// Store holds the trust state one agent (as trustor) keeps about its
// trustees: per-(trustee, task type) experience records, plus the usage
// statistics it keeps about agents that delegated to it (for the reverse
// evaluation of eq. 1).
//
// Records are held compact — tasks interned into the store's catalog, each
// record 40 pointer-free bytes — in one slice sorted by (trustee, task
// type), so the aggregate record state of a million-node population is
// GC-transparent. The catalog is shared by every store of a population
// (UpdateConfig.Catalog); refs therefore carry across stores into captured
// views without translation.
//
// Store is safe for concurrent use: one RWMutex guards the records and the
// usage logs. Searches and delegation rounds read frozen views, not live
// stores, so the lock is rarely contended.
type Store struct {
	owner AgentID
	cfg   UpdateConfig
	mu    sync.RWMutex
	// about lists the distinct trustees in ascending order; the records
	// about about[i] are recs[off[i]:off[i+1]], sorted by task type. off
	// has len(about)+1 entries once the store holds a record.
	about   []AgentID
	off     []int32
	recs    []CompactRecord
	usage   map[AgentID]UsageLog
	version atomic.Uint64 // stamp of the last mutation, 0 for a never-written store
}

// storeStamps mints the mutation stamps of every store in the process. One
// shared counter means a stamp names one mutation of one store: a store that
// replaces another, or is loaded afresh, can never repeat a stamp an earlier
// capture recorded.
var storeStamps atomic.Uint64

// touch stamps a mutation. Every mutator calls it, so two equal Version
// readings bracket an unchanged store.
func (s *Store) touch() { s.version.Store(storeStamps.Add(1)) }

// Version returns the store's mutation stamp: it changes on every Observe,
// Seed, SeedSorted, ObserveUsage and Forget (and is fresh after LoadStore),
// and no read moves it. A store never written reports 0 — and is empty, so
// two such stores hold the same state. Frozen-epoch captures record it per
// row to copy unchanged rows from their predecessor epoch.
func (s *Store) Version() uint64 { return s.version.Load() }

// NewStore creates an empty store for the given agent using cfg for all
// updates. Record slices and the usage map are allocated lazily on first
// write, so an empty store costs one allocation — population builds create
// one store per node. A zero cfg.Norm gets UnitNormalizer, and a nil
// cfg.Catalog a private catalog; populations share one across all stores.
func NewStore(owner AgentID, cfg UpdateConfig) *Store {
	if cfg.Norm == (Normalizer{}) {
		cfg.Norm = UnitNormalizer()
	}
	if cfg.Catalog == nil {
		cfg.Catalog = task.NewCatalog()
	}
	return &Store{owner: owner, cfg: cfg}
}

// row returns the records about trustee, sorted by task type (nil when the
// store has none). The caller holds mu.
func (s *Store) row(trustee AgentID) []CompactRecord {
	i, ok := slices.BinarySearch(s.about, trustee)
	if !ok {
		return nil
	}
	return s.recs[s.off[i]:s.off[i+1]]
}

// slot returns the record for (trustee, typ), inserting fresh at its sorted
// position when the store has none: the insert shifts the later records and
// bumps the later offsets. found reports whether the record existed. The
// caller holds mu for writing; tasks resolves every ref in the store.
func (s *Store) slot(trustee AgentID, typ task.Type, tasks []task.Task, fresh CompactRecord) (r *CompactRecord, found bool) {
	i, ok := slices.BinarySearch(s.about, trustee)
	if !ok {
		if s.off == nil {
			s.off = []int32{0}
		}
		s.about = slices.Insert(s.about, i, trustee)
		s.off = slices.Insert(s.off, i, s.off[i])
	}
	lo := int(s.off[i])
	j, found := searchCompact(tasks, s.recs[lo:s.off[i+1]], typ)
	if !found {
		s.recs = slices.Insert(s.recs, lo+j, fresh)
		for k := i + 1; k < len(s.off); k++ {
			s.off[k]++
		}
	}
	return &s.recs[lo+j], found
}

// Owner returns the agent this store belongs to.
func (s *Store) Owner() AgentID { return s.owner }

// Config returns the store's update configuration.
func (s *Store) Config() UpdateConfig { return s.cfg }

// Catalog returns the catalog the store's records are interned into.
func (s *Store) Catalog() *task.Catalog { return s.cfg.Catalog }

// Record returns the experience record for (trustee, task type), if any.
func (s *Store) Record(trustee AgentID, typ task.Type) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Snapshot loaded under the lock: every ref in the store was interned
	// before the writer that stored it released this lock, so the snapshot
	// resolves them all (the catalog only grows).
	tasks := s.cfg.Catalog.Tasks()
	recs := s.row(trustee)
	if i, ok := searchCompact(tasks, recs, typ); ok {
		return materialize(tasks, recs[i]), true
	}
	return Record{}, false
}

// Expectation returns the expectation of the record about (trustee, typ),
// or the store's prior cfg.Init when it holds none — the value a trustor
// ranks a candidate by. Unlike Record it materializes no task.
func (s *Store) Expectation(trustee AgentID, typ task.Type) Expectation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs := s.row(trustee)
	if i, ok := searchCompact(s.cfg.Catalog.Tasks(), recs, typ); ok {
		return recs[i].Exp
	}
	return s.cfg.Init
}

// Records returns all experience records the store holds about trustee,
// ordered by task type.
func (s *Store) Records(trustee AgentID) []Record {
	return s.AppendRecords(trustee, nil)
}

// AppendRecords appends the experience records about trustee (ordered by
// task type) to buf and returns the extended slice. Reusing buf across calls
// keeps the read path allocation-free: the materialized Task values share
// the catalog's slices.
func (s *Store) AppendRecords(trustee AgentID, buf []Record) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs := s.row(trustee)
	if len(recs) == 0 {
		return buf
	}
	tasks := s.cfg.Catalog.Tasks()
	for _, r := range recs {
		buf = append(buf, materialize(tasks, r))
	}
	return buf
}

// AppendCompact appends the compact records about trustee (ordered by task
// type) to buf and returns the extended slice — the zero-widening bulk read
// behind view captures. cat must be the store's own catalog: the caller is
// building an arena resolved against it, and mixing catalogs would alias
// refs across namespaces.
func (s *Store) AppendCompact(trustee AgentID, cat *task.Catalog, buf []CompactRecord) []CompactRecord {
	if cat != s.cfg.Catalog {
		panic("core: AppendCompact with a foreign catalog")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append(buf, s.row(trustee)...)
}

// RecordCount returns how many records the store holds about trustee. It
// is the counting pass of the parallel trust-view capture: together with
// AppendCompact it lets CaptureRoundView size every arena span
// before filling it.
func (s *Store) RecordCount(trustee AgentID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.row(trustee))
}

// NumRecords returns the number of (trustee, task type) records held.
func (s *Store) NumRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Trustees returns the sorted IDs of all agents the store has experience
// with.
func (s *Store) Trustees() []AgentID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.about) == 0 {
		return nil
	}
	return slices.Clone(s.about)
}

// Observe folds the outcome of delegating t to trustee into the store
// (post-evaluation, eqs. 19–22 / 25–28) and returns the updated record.
func (s *Store) Observe(trustee AgentID, t task.Task, o Outcome, ectx EnvContext) Record {
	ref := s.cfg.Catalog.Intern(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	tasks := s.cfg.Catalog.Tasks() // after Intern: resolves ref
	r, _ := s.slot(trustee, t.Type(), tasks, CompactRecord{Ref: ref, Exp: s.cfg.Init})
	r.Exp = Update(r.Exp, o, ectx, s.cfg)
	r.Count++
	s.touch()
	return materialize(tasks, *r)
}

// Seed installs an expectation for (trustee, task) without counting a
// delegation — used to initialize trust from social-relationship metrics or
// experiment setup, as §4.4 suggests.
func (s *Store) Seed(trustee AgentID, t task.Task, exp Expectation) {
	s.setRecord(trustee, Record{Task: t, Exp: exp})
}

// setRecord installs or replaces the record for the task type of r.Task.
func (s *Store) setRecord(trustee AgentID, r Record) {
	cr := CompactRecord{Ref: s.cfg.Catalog.Intern(r.Task), Exp: r.Exp, Count: uint32(r.Count)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, found := s.slot(trustee, r.Task.Type(), s.cfg.Catalog.Tasks(), cr); found {
		*rec = cr
	}
	s.touch()
}

// InferTW implements the inferential transfer of trust (eqs. 2–4): the
// trustworthiness of trustee on a task the trustor never delegated to it,
// inferred from experienced tasks that share characteristics.
//
// For each characteristic a_i of t it computes the weighted average of the
// trustworthiness of every experienced task containing a_i (weights are the
// characteristic's importance within those tasks), then combines the
// per-characteristic estimates with t's own weights w_i(τ′). Inference
// requires every characteristic of t to be covered by experience (the ∀i ∃j
// condition); otherwise ok is false.
//
// A direct record for t's exact type, when present, participates like any
// other experienced task.
func (s *Store) InferTW(trustee AgentID, t task.Task) (tw float64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	recs := s.row(trustee)
	if len(recs) == 0 {
		return 0, false
	}
	return inferFromCompact(s.cfg.Catalog.Tasks(), recs, t, s.cfg.Norm)
}

// BestTW returns the best available trustworthiness estimate for trustee on
// t: the direct record if one exists, otherwise characteristic inference,
// both read under one lock.
func (s *Store) BestTW(trustee AgentID, t task.Task) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return bestTW(s.cfg.Catalog.Tasks(), s.row(trustee), t, s.cfg.Norm)
}

// UsageLog is the trustee-side record of how a particular trustor used its
// resources — the basis of the reverse evaluation (§4.1): "the trustee can
// use its log files or usage pattern records to recognize how the trustor
// has used its resources."
type UsageLog struct {
	Responsible int
	Abusive     int
}

// TW returns the reverse trustworthiness TW̃_{y←X} implied by the log: the
// fraction of responsible uses smoothed with one optimistic pseudo-count.
// An empty log scores 1 — strangers are innocent until proven guilty, which
// is what keeps the service loop alive under high θ thresholds: a trustor
// must actually abuse resources before trustees start refusing it, exactly
// the dynamic behind Fig. 7's abuse-rate decline.
func (l UsageLog) TW() float64 {
	return (float64(l.Responsible) + 1) / (float64(l.Responsible+l.Abusive) + 1)
}

// Usage returns the usage log the store keeps about a trustor.
func (s *Store) Usage(trustor AgentID) UsageLog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.usage[trustor]
}

// usageSorted returns all usage logs ordered by trustor ID (for snapshots).
func (s *Store) usageSorted() []usageSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]usageSnapshot, 0, len(s.usage))
	for _, id := range slices.Sorted(maps.Keys(s.usage)) {
		l := s.usage[id]
		out = append(out, usageSnapshot{Trustor: id, Responsible: l.Responsible, Abusive: l.Abusive})
	}
	return out
}

// ObserveUsage records one use of this agent's resources by trustor.
func (s *Store) ObserveUsage(trustor AgentID, abusive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.usage == nil {
		s.usage = make(map[AgentID]UsageLog)
	}
	l := s.usage[trustor]
	if abusive {
		l.Abusive++
	} else {
		l.Responsible++
	}
	s.usage[trustor] = l
	s.touch()
}

// Forget erases everything the store knows about one agent: the experience
// records accumulated about it as trustee and the usage log kept about it as
// trustor. This is the memory half of identity churn — a whitewashing
// attacker that rejoins under a fresh identity is, to every peer, an agent
// nobody remembers.
func (s *Store) Forget(about AgentID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := slices.BinarySearch(s.about, about); ok {
		lo, hi := s.off[i], s.off[i+1]
		s.recs = slices.Delete(s.recs, int(lo), int(hi))
		s.about = slices.Delete(s.about, i, i+1)
		s.off = slices.Delete(s.off, i+1, i+2)
		for k := i + 1; k < len(s.off); k++ {
			s.off[k] -= hi - lo
		}
	}
	delete(s.usage, about)
	s.touch()
}

// ReverseTW returns the reverse-evaluation trustworthiness this agent (as
// potential trustee) assigns to the requesting trustor (eq. 1's
// TW̃_{y←X}(τ)).
func (s *Store) ReverseTW(trustor AgentID) float64 {
	return s.Usage(trustor).TW()
}
