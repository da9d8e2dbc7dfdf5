package core

import (
	"cmp"
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

// storeShards stripes the record map across independently locked shards so
// concurrent readers of different trustees (the parallel transitivity search
// fanning out over a hub agent's store) do not contend on one lock.
const storeShards = 8

// storeShard is one lock stripe: the experience records about the trustees
// whose IDs hash into it. Records per trustee are kept sorted by task type,
// so reads hand out ordered data without sorting or allocating. The map is
// allocated lazily on first write — a 100k-node population creates 800k
// shard maps, most of which never see a record — and every read path
// tolerates it being nil.
type storeShard struct {
	mu      sync.RWMutex
	records map[AgentID][]CompactRecord
}

// Store holds the trust state one agent (as trustor) keeps about its
// trustees: per-(trustee, task type) experience records, plus the usage
// statistics it keeps about agents that delegated to it (for the reverse
// evaluation of eq. 1).
//
// Records are held compact — tasks interned into the store's catalog, each
// record 40 pointer-free bytes — so the aggregate record state of a
// million-node population is GC-transparent. The catalog is shared by every
// store of a population (UpdateConfig.Catalog); refs therefore carry across
// stores into captured views without translation.
//
// Store is safe for concurrent use: records are striped over sharded
// RWMutexes keyed by trustee ID, and usage logs carry their own lock. The
// parallel simulation engine relies on this — many trustor goroutines read
// hub agents' stores simultaneously during a delegation round.
type Store struct {
	owner   AgentID
	cfg     UpdateConfig
	cat     *task.Catalog
	shards  [storeShards]storeShard
	usageMu sync.RWMutex
	usage   map[AgentID]*UsageLog
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
// updates. Shard and usage maps are allocated lazily on first write, so an
// empty store costs one allocation — population builds create one store per
// node, and at 100k nodes eager maps dominated the build time. A nil
// cfg.Catalog gets a private catalog; populations share one across all
// stores.
func NewStore(owner AgentID, cfg UpdateConfig) *Store {
	if cfg.Norm == nil {
		cfg.Norm = UnitNormalizer()
	}
	if cfg.Catalog == nil {
		cfg.Catalog = task.NewCatalog()
	}
	return &Store{owner: owner, cfg: cfg, cat: cfg.Catalog}
}

// shard returns the lock stripe responsible for a trustee.
func (s *Store) shard(trustee AgentID) *storeShard {
	return &s.shards[uint32(trustee)%storeShards]
}

// searchRecord locates the record for typ in a sorted-by-type record slice.
func searchRecord(recs []Record, typ task.Type) (int, bool) {
	return slices.BinarySearchFunc(recs, typ, func(r Record, t task.Type) int {
		return cmp.Compare(r.Task.Type(), t)
	})
}

// Owner returns the agent this store belongs to.
func (s *Store) Owner() AgentID { return s.owner }

// Config returns the store's update configuration.
func (s *Store) Config() UpdateConfig { return s.cfg }

// Catalog returns the catalog the store's records are interned into.
func (s *Store) Catalog() *task.Catalog { return s.cat }

// Record returns the experience record for (trustee, task type), if any.
func (s *Store) Record(trustee AgentID, typ task.Type) (Record, bool) {
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// Snapshot loaded under the lock: every ref in the shard was interned
	// before the writer that stored it released this lock, so the snapshot
	// resolves them all (the catalog only grows).
	tasks := s.cat.Tasks()
	recs := sh.records[trustee]
	if i, ok := searchCompact(tasks, recs, typ); ok {
		return materialize(tasks, recs[i]), true
	}
	return Record{}, false
}

// Records returns all experience records the store holds about trustee,
// ordered by task type.
func (s *Store) Records(trustee AgentID) []Record {
	return s.AppendRecords(trustee, nil)
}

// AppendRecords appends the experience records about trustee (ordered by
// task type) to buf and returns the extended slice. Reusing buf across calls
// keeps the hot read path of the transitivity search allocation-free: the
// materialized Task values share the catalog's slices.
func (s *Store) AppendRecords(trustee AgentID, buf []Record) []Record {
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	recs := sh.records[trustee]
	if len(recs) == 0 {
		return buf
	}
	tasks := s.cat.Tasks()
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
	if cat != s.cat {
		panic("core: AppendCompact with a foreign catalog")
	}
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	recs := sh.records[trustee]
	if len(recs) == 0 {
		return buf
	}
	return append(buf, recs...)
}

// RecordCount returns how many records the store holds about trustee. It
// is the counting pass of the parallel trust-view capture: together with
// AppendCompact it lets CaptureTrustView size every arena span
// before filling it.
func (s *Store) RecordCount(trustee AgentID) int {
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.records[trustee])
}

// NumRecords returns the number of (trustee, task type) records held.
func (s *Store) NumRecords() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		storeLockTick()
		sh.mu.RLock()
		for _, recs := range sh.records {
			n += len(recs)
		}
		sh.mu.RUnlock()
	}
	return n
}

// Trustees returns the sorted IDs of all agents the store has experience
// with.
func (s *Store) Trustees() []AgentID {
	var out []AgentID
	for i := range s.shards {
		sh := &s.shards[i]
		storeLockTick()
		sh.mu.RLock()
		for id := range sh.records {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// Observe folds the outcome of delegating t to trustee into the store
// (post-evaluation, eqs. 19–22 / 25–28) and returns the updated record.
func (s *Store) Observe(trustee AgentID, t task.Task, o Outcome, ectx EnvContext) Record {
	ref := s.cat.Intern(t)
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tasks := s.cat.Tasks() // after Intern: resolves ref
	recs := sh.records[trustee]
	i, ok := searchCompact(tasks, recs, t.Type())
	if !ok {
		if sh.records == nil {
			sh.records = make(map[AgentID][]CompactRecord)
		}
		recs = slices.Insert(recs, i, CompactRecord{Ref: ref, Exp: s.cfg.Init})
		sh.records[trustee] = recs
	}
	r := &recs[i]
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
	ref := s.cat.Intern(r.Task)
	cr := CompactRecord{Ref: ref, Exp: r.Exp, Count: uint32(r.Count)}
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tasks := s.cat.Tasks()
	recs := sh.records[trustee]
	if i, ok := searchCompact(tasks, recs, r.Task.Type()); ok {
		recs[i] = cr
	} else {
		if sh.records == nil {
			sh.records = make(map[AgentID][]CompactRecord)
		}
		sh.records[trustee] = slices.Insert(recs, i, cr)
	}
	s.touch()
}

// DirectTW returns the trustworthiness of trustee on the exact task type,
// if the store has a record for it (the conventional, pre-inference lookup).
func (s *Store) DirectTW(trustee AgentID, typ task.Type) (float64, bool) {
	r, ok := s.Record(trustee, typ)
	if !ok {
		return 0, false
	}
	return r.TW(s.cfg.Norm), true
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
	sh := s.shard(trustee)
	storeLockTick()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	recs := sh.records[trustee]
	if len(recs) == 0 {
		return 0, false
	}
	return InferFromCompact(s.cat.Tasks(), recs, t, s.cfg.Norm)
}

// BestTW returns the best available trustworthiness estimate for trustee on
// t: the direct record if one exists, otherwise characteristic inference.
func (s *Store) BestTW(trustee AgentID, t task.Task) (float64, bool) {
	if tw, ok := s.DirectTW(trustee, t.Type()); ok {
		return tw, true
	}
	return s.InferTW(trustee, t)
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
	storeLockTick()
	s.usageMu.RLock()
	defer s.usageMu.RUnlock()
	if l, ok := s.usage[trustor]; ok {
		return *l
	}
	return UsageLog{}
}

// usageSorted returns all usage logs ordered by trustor ID (for snapshots).
func (s *Store) usageSorted() []usageSnapshot {
	storeLockTick()
	s.usageMu.RLock()
	defer s.usageMu.RUnlock()
	out := make([]usageSnapshot, 0, len(s.usage))
	for id, l := range s.usage {
		out = append(out, usageSnapshot{Trustor: id, Responsible: l.Responsible, Abusive: l.Abusive})
	}
	slices.SortFunc(out, func(a, b usageSnapshot) int { return cmp.Compare(a.Trustor, b.Trustor) })
	return out
}

// ObserveUsage records one use of this agent's resources by trustor.
func (s *Store) ObserveUsage(trustor AgentID, abusive bool) {
	storeLockTick()
	s.usageMu.Lock()
	defer s.usageMu.Unlock()
	if s.usage == nil {
		s.usage = make(map[AgentID]*UsageLog)
	}
	l, ok := s.usage[trustor]
	if !ok {
		l = &UsageLog{}
		s.usage[trustor] = l
	}
	if abusive {
		l.Abusive++
	} else {
		l.Responsible++
	}
	s.touch()
}

// Forget erases everything the store knows about one agent: the experience
// records accumulated about it as trustee and the usage log kept about it as
// trustor. This is the memory half of identity churn — a whitewashing
// attacker that rejoins under a fresh identity is, to every peer, an agent
// nobody remembers.
func (s *Store) Forget(about AgentID) {
	sh := s.shard(about)
	storeLockTick()
	sh.mu.Lock()
	delete(sh.records, about)
	sh.mu.Unlock()
	storeLockTick()
	s.usageMu.Lock()
	delete(s.usage, about)
	s.touch()
	s.usageMu.Unlock()
}

// ReverseTW returns the reverse-evaluation trustworthiness this agent (as
// potential trustee) assigns to the requesting trustor (eq. 1's
// TW̃_{y←X}(τ)).
func (s *Store) ReverseTW(trustor AgentID) float64 {
	return s.Usage(trustor).TW()
}
