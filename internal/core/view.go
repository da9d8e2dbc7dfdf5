package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"siot/internal/par"
	"siot/internal/task"
)

// TrustView is a frozen-epoch snapshot of the trust state the transitivity
// search reads: a CSR adjacency shared with the population plus a flat
// compact-record arena holding, for every directed social edge (u, v), the
// records u keeps about v at capture time, with a catalog snapshot resolving
// their task refs.
//
// The search hot loop is pure — it only ever reads (holder, neighbor) record
// slices — so capturing them once per sweep lets every BFS run over
// contiguous memory with zero locks and zero per-hop copies, where reading
// the live stores takes an RWMutex RLock and copies records on every hop. The arena is pointer-free (CompactRecord), so a multi-GB
// million-node capture is a single GC-transparent allocation.
//
// A view holds the state at capture. Later store writes do not reach it:
// they make it stale, never torn, so a holder may keep reading it while the
// stores move on. Every store reader works on one — the transitivity
// sweeps, the probes, and the mutuality rounds, whose compute phase reads a
// RoundView of the previous round's state while only the merge phase
// writes the stores. Concurrent readers are safe; the view is never written
// after capture.
type TrustView struct {
	adjOff []int32         // CSR row offsets, len NumAgents+1 (shared, not owned)
	adjTo  []AgentID       // CSR edge targets (shared, not owned)
	recOff []int32         // per-edge spans into recs, len len(adjTo)+1
	recs   []CompactRecord // record arena, grouped by directed edge
	tasks  []task.Task     // catalog snapshot resolving recs' refs (shared, immutable)
	pool   *ArenaPool      // arena source, nil when the arenas were allocated fresh
	// stamps[u] is row u's store stamp (Store.Version) at capture, nil once
	// the view is released; equal stamps in two views of one population
	// mean row u's records and usage are the same in both.
	stamps     []uint64
	recaptured int // rows read from the stores rather than copied from a predecessor
}

// ErrArenaOverflow reports a capture whose total record count exceeds the
// int32 offset space of the view arena (~2.1 G records). Before the typed
// error the prefix sum wrapped silently, corrupting every span after the
// overflow point.
var ErrArenaOverflow = errors.New("core: capture arena exceeds int32 offset space")

// checkedArenaLen validates a prefix-summed total against the int32 offset
// space — the single chokepoint every capture funnels through.
func checkedArenaLen(total int64) (int32, error) {
	if total > math.MaxInt32 {
		return 0, fmt.Errorf("%w: %d records", ErrArenaOverflow, total)
	}
	return int32(total), nil
}

// CaptureRoundView freezes a population's full round-read state: the
// per-edge records and the per-edge usage counters, filled in the same
// pass as the records. adjOff/adjTo describe the CSR adjacency over dense
// agent IDs in [0, len(adjOff)-1); the adjacency slices are borrowed, not
// copied, and must stay immutable for the lifetime of the view, with rows
// in ascending target order (the population CSR is; EdgeIndex relies on
// it). A first pass computes per-edge record counts concurrently
// (prefix-summed into the span offsets), then workers fill disjoint spans
// in place — byte-identical to a serial capture at every worker count
// (workers <= 1 runs the same two passes serially). Arenas are drawn from
// pool when non-nil; release them with Release.
//
// A capture whose record total overflows the arena offset space returns
// ErrArenaOverflow before any arena is filled. The capture panics if a
// store's record count changes between the two passes: the frozen-epoch
// contract requires quiescent stores for the whole capture, and a
// mismatched span would otherwise leak stale or short data into the arena.
//
// prev, when non-nil, is the predecessor epoch: an unreleased view captured
// from the same stores over the same adjacency. Every row whose store stamp
// still equals the one prev recorded is copied from prev — records and
// usage counters alike — and only the other rows read the stores, so a
// republish after a few writes costs a copy, not a recapture. The result is
// byte-identical to a capture with prev nil; a prev over another adjacency
// is ignored.
func CaptureRoundView(adjOff []int32, adjTo []AgentID, src RoundSource, norm Normalizer, workers int, pool *ArenaPool, prev *RoundView) (*RoundView, error) {
	// Each row is either clean — prev holds it under the stamp its store
	// still carries, so its record counts, records and usage counters are
	// copied from prev — or read from the stores through the two checked
	// passes.
	n, ne := len(adjOff)-1, len(adjTo)
	v := &RoundView{norm: norm, TrustView: &TrustView{
		adjOff: adjOff,
		adjTo:  adjTo,
		recOff: take[int32](pool, ne+1),
		tasks:  src.Catalog.Tasks(),
		pool:   pool,
		stamps: take[uint64](pool, n),
	}, resp: take[int32](pool, ne), abus: take[int32](pool, ne)}
	tv := v.TrustView
	base := prev
	if base != nil && !tv.sameRows(base.TrustView) {
		base = nil // foreign
	}
	// Pass 1: row stamps and per-edge record counts, written one slot right
	// so the prefix sum lands directly in recOff.
	var recaptured atomic.Int64
	par.For(n, workers, func(_, lo, hi int) {
		dirty := 0
		for u := lo; u < hi; u++ {
			first, last := adjOff[u], adjOff[u+1]
			tv.stamps[u] = src.Version(AgentID(u))
			if base.clean(tv, u) {
				for e := first; e < last; e++ {
					tv.recOff[e+1] = base.recOff[e+1] - base.recOff[e]
				}
				continue
			}
			dirty++
			for k, w := range adjTo[first:last] {
				tv.recOff[int(first)+k+1] = int32(src.Count(AgentID(u), w))
			}
		}
		recaptured.Add(int64(dirty))
	})
	tv.recaptured = int(recaptured.Load())
	// Serial prefix sum in int64: per-edge counts are individually small but
	// their total can overflow int32 at the million-node scale, and a
	// wrapped offset corrupts every later span.
	tv.recOff[0] = 0
	total := int64(0)
	for e := 0; e < ne; e++ {
		total += int64(tv.recOff[e+1])
		checked, err := checkedArenaLen(total)
		if err != nil {
			tv.recOff, tv.recs = nil, nil
			return nil, err
		}
		tv.recOff[e+1] = checked
	}
	// Pass 2: fill disjoint spans in place. A clean row copies its spans
	// from base in one piece. Otherwise appending into a zero-length,
	// exact-capacity subslice writes directly into the arena; a span that
	// comes back with a different length (or a reallocated base) means the
	// store mutated between the passes.
	tv.recs = take[CompactRecord](pool, int(tv.recOff[ne]))
	par.For(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			first, last := adjOff[u], adjOff[u+1]
			if base.clean(tv, u) {
				copy(tv.recs[tv.recOff[first]:tv.recOff[last]], base.recs[base.recOff[first]:base.recOff[last]])
				copy(v.resp[first:last], base.resp[first:last])
				copy(v.abus[first:last], base.abus[first:last])
				continue
			}
			for k, w := range adjTo[first:last] {
				e := int(first) + k
				span, want := tv.recOff[e], tv.recOff[e+1]-tv.recOff[e]
				got := src.Append(AgentID(u), w, tv.recs[span:span:span+want])
				if int32(len(got)) != want {
					panic("core: store mutated during capture")
				}
				l := src.Usage(AgentID(u), w)
				v.resp[e], v.abus[e] = int32(l.Responsible), int32(l.Abusive)
			}
		}
	})
	return v, nil
}

// sameRows reports whether rows of v and o can be compared by stamp: both
// carry stamps and share the adjacency (the same backing arrays, so the
// same population).
func (v *TrustView) sameRows(o *TrustView) bool {
	return v.stamps != nil && o.stamps != nil &&
		sameSlice(v.adjOff, o.adjOff) && sameSlice(v.adjTo, o.adjTo)
}

// sameSlice reports whether a and b are the same slice: one backing array,
// one length.
func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// clean reports whether row u of a capture in progress (tv, its stamps
// already taken) can be copied from predecessor base, nil for none.
func (base *RoundView) clean(tv *TrustView, u int) bool {
	return base != nil && tv.stamps[u] == base.stamps[u]
}

// Release returns the view's arenas to the pool it was captured from and
// invalidates the view: after Release the view (and anything aliasing its
// arenas, like EdgeRecords results) must not be used. Views captured
// without a pool release nothing. Only the owner of the capture may call
// Release, exactly once.
func (v *TrustView) Release() {
	give(v.pool, v.recOff)
	give(v.pool, v.recs)
	give(v.pool, v.stamps)
	v.recOff, v.recs, v.stamps = nil, nil, nil
}

// RowsRecaptured returns how many CSR rows the capture read from the live
// stores; the rest were copied from the predecessor epoch. A full capture
// rereads every row.
func (v *TrustView) RowsRecaptured() int { return v.recaptured }

// NumAgents returns the number of dense agent slots.
func (v *TrustView) NumAgents() int { return len(v.adjOff) - 1 }

// NumEdges returns the number of directed edges.
func (v *TrustView) NumEdges() int { return len(v.adjTo) }

// Neighbors returns the frozen neighbor list of u. The slice is shared and
// must not be modified.
func (v *TrustView) Neighbors(u AgentID) []AgentID {
	return v.adjTo[v.adjOff[u]:v.adjOff[u+1]]
}

// EdgeRecords returns the captured compact records of directed edge e (an
// index into the CSR edge array). The slice aliases the arena and must not
// be modified; resolve task refs through Tasks.
func (v *TrustView) EdgeRecords(e int32) []CompactRecord {
	return v.recs[v.recOff[e]:v.recOff[e+1]]
}

// Tasks returns the catalog snapshot resolving the view's record refs,
// indexed by task.Ref. The slice is immutable and shared.
func (v *TrustView) Tasks() []task.Task { return v.tasks }

// blocked is the sentinel for "hop not admissible" in memo tables. Record
// trustworthiness is always finite (Expectation.Validate rejects NaN), so
// NaN is free to carry the ok=false case.
var blocked = math.NaN()

// ErrNotRequired reports a search its memo does not cover: a nil memo, one
// over another view, or one RequireModel never built the search's tables in.
var ErrNotRequired = errors.New("core: search not covered by its memo")

// EdgeMemo caches per-edge hop trustworthiness over a TrustView for one
// epoch. A transitivity sweep fires one independent BFS per trustor over the
// same frozen stores, so the hop value of edge (u, v) — which depends only on
// the edge's records, the model, and the task — would be recomputed up to
// N-trustors times. The memo computes each needed table once, in a parallel
// pre-pass over the CSR edges, turning the BFS inner loop into a single
// array lookup.
//
// Tables are keyed by (model, task type) and remember the full task each
// was built for, so a same-type task with different contents is never
// served a stale table. A PerCharacteristic model's tables are keyed by
// (model, characteristic) instead, each built from the model's HopTW on the
// characteristic's unit task and shared by every task containing the
// characteristic. An EpochTrainable model has one table, filled by its
// training and shared by every task. RequireModel must be called before the
// parallel search phase; afterwards all lookups are pure reads and safe for
// concurrent use.
type EdgeMemo struct {
	view    *TrustView
	norm    Normalizer
	workers int
	pool    *ArenaPool // table source, nil when tables are allocated fresh
	// models holds each required model's tables, keyed by model name.
	models map[string]*modelMemo
}

// modelMemo is one model's share of an EdgeMemo: the model, which Reset
// evaluates again, and its hop tables keyed by task type (for a
// PerCharacteristic model, by the type of each characteristic's unit task)
// — or, for an EpochTrainable model, the one table its training filled for
// the epoch, which dies with the memo (and with Reset).
type modelMemo struct {
	mdl     TrustModel
	tables  map[task.Type]memoTable
	trained []float64
}

// memoTable is one built hop table: vals[e] is the hop value of edge e for
// task t, blocked when the edge's evidence does not admit the hop.
type memoTable struct {
	t    task.Task
	vals []float64
}

// NewEdgeMemoPooled creates an empty memo over a view. workers bounds the
// pre-pass parallelism (values below 1 run serially). Hop tables are drawn
// from pool (nil falls back to fresh allocation); release them with
// Release when the memo goes stale.
func NewEdgeMemoPooled(view *TrustView, norm Normalizer, workers int, pool *ArenaPool) *EdgeMemo {
	return &EdgeMemo{
		view:    view,
		norm:    norm,
		workers: workers,
		pool:    pool,
		models:  make(map[string]*modelMemo),
	}
}

// Release returns every built hop table to the memo's pool. It must not run
// concurrently with searches; after Release the memo is reusable
// (RequireModel rebuilds on demand) but any table slice previously handed
// out is invalid.
func (m *EdgeMemo) Release() {
	for _, mm := range m.models {
		for _, tb := range mm.tables {
			give(m.pool, tb.vals)
		}
		clear(mm.tables)
		give(m.pool, mm.trained)
		mm.trained = nil
	}
}

// Reset retargets the memo at view, a later capture of the stores its
// current view froze, which must still be unreleased for the call. Before
// it returns, every table is refreshed in place: only the rows whose store
// stamp differs between the two views are evaluated again, so the tables
// are bit-identical to a fresh build, like RequireModelFrom's. A trained
// table goes back to the pool instead (its training fitted the whole
// epoch; the next RequireModel retrains), and so does every table when
// view is over another adjacency or either view lacks stamps. Resetting to
// the current view changes nothing.
func (m *EdgeMemo) Reset(view *TrustView) {
	if view == m.view {
		return
	}
	old := m.view
	m.view = view
	if !view.sameRows(old) {
		m.Release()
		return
	}
	for _, mm := range m.models {
		give(m.pool, mm.trained)
		mm.trained = nil
		var ts []task.Task
		var tabs [][]float64
		for _, tb := range mm.tables {
			ts, tabs = append(ts, tb.t), append(tabs, tb.vals)
		}
		m.fill(mm.mdl, ts, tabs, tabs, old.stamps)
	}
}

// RequireModel precomputes every table the model needs to search for the
// given tasks: one per task for a single-path model, one per characteristic
// for a PerCharacteristic model. An EpochTrainable model instead trains once
// per epoch, filling its one table. It must not run concurrently with
// searches; tables already present are reused, so requiring covered tasks
// is free and repeated sweeps over one epoch build each table once.
func (m *EdgeMemo) RequireModel(mdl TrustModel, tasks []task.Task) {
	m.RequireModelFrom(nil, mdl, tasks)
}

// RequireModelFrom is RequireModel reusing a predecessor epoch's memo: where
// prev holds a table for the same model and an Equal task, every CSR row
// whose store stamp is the same in both views is copied from it and only
// the other rows are evaluated. The tables are bit-identical to a fresh
// build — a hop value depends only on the edge's records (HopTW is
// evidence-local) and catalog refs only grow. prev must be unreleased for
// the call and built under the same normalizer; a nil prev, a prev over
// another adjacency or a view without stamps, an EpochTrainable model (its
// training fits the whole epoch) and tables prev lacks all build in full.
func (m *EdgeMemo) RequireModelFrom(prev *EdgeMemo, mdl TrustModel, tasks []task.Task) {
	mm := m.models[mdl.Name()]
	if mm == nil {
		mm = &modelMemo{mdl: mdl, tables: make(map[task.Type]memoTable)}
		m.models[mdl.Name()] = mm
	}
	if tr, ok := mdl.(EpochTrainable); ok {
		if mm.trained == nil {
			mm.trained = take[float64](m.pool, m.view.NumEdges())
			tr.TrainEpoch(m.view, m.norm, m.workers, mm.trained)
		}
		return
	}
	// want holds the task each table must end up built for: per
	// characteristic its unit task, per task type the last task requested (a
	// same-type task with different contents replaces the table).
	var want []task.Task
	add := func(t task.Task) {
		for i := range want {
			if want[i].Type() == t.Type() {
				want[i] = t
				return
			}
		}
		want = append(want, t)
	}
	perChar := mdl.Spec().PerCharacteristic
	for _, t := range tasks {
		if !perChar {
			add(t)
			continue
		}
		for _, c := range t.Characteristics() {
			if mm.charTable(c) == nil {
				add(unitTask(c))
			}
		}
	}
	missing := slices.DeleteFunc(want, func(t task.Task) bool { return mm.table(t) != nil })
	if len(missing) == 0 {
		return
	}
	var pm *modelMemo
	var prevStamps []uint64
	if prev != nil && m.view.sameRows(prev.view) {
		pm, prevStamps = prev.model(mdl), prev.view.stamps
	}
	tabs, olds := make([][]float64, len(missing)), make([][]float64, len(missing))
	for i, t := range missing {
		give(m.pool, mm.tables[t.Type()].vals) // built for a same-type task, if any
		tabs[i], olds[i] = take[float64](m.pool, m.view.NumEdges()), pm.table(t)
	}
	m.fill(mdl, missing, tabs, olds, prevStamps)
	for i, t := range missing {
		mm.tables[t.Type()] = memoTable{t: t, vals: tabs[i]}
	}
}

// fill evaluates mdl's tables tabs for ts, distinct in type, in one
// parallel pass over the CSR rows: each edge's records are read once for
// every table, where one pass per table would stream the whole record arena
// again each time. A row is clean when its store stamp equals the one in
// prevStamps, a predecessor view's (nil for none). A clean row takes
// olds[i]'s values where olds[i] is not nil — copied from a predecessor's
// table, or left in place when olds[i] is tabs[i] — and only the rest
// evaluate.
func (m *EdgeMemo) fill(mdl TrustModel, ts []task.Task, tabs, olds [][]float64, prevStamps []uint64) {
	v := m.view
	ctx := HopContext{Tasks: v.tasks, Norm: m.norm}
	allOld := prevStamps != nil && !slices.ContainsFunc(olds, func(old []float64) bool { return old == nil })
	par.For(v.NumAgents(), m.workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			first, last := v.adjOff[u], v.adjOff[u+1]
			clean := prevStamps != nil && v.stamps[u] == prevStamps[u]
			if clean {
				for i, old := range olds {
					if old != nil && !sameSlice(old, tabs[i]) {
						copy(tabs[i][first:last], old[first:last])
					}
				}
				if allOld {
					continue
				}
			}
			for e := first; e < last; e++ {
				recs := v.EdgeRecords(e)
				for i, t := range ts {
					if clean && olds[i] != nil {
						continue
					}
					val, ok := mdl.HopTW(ctx, recs, t)
					if !ok {
						val = blocked
					}
					tabs[i][e] = val
				}
			}
		}
	})
}

// model returns mdl's share of the memo, nil when RequireModel never ran
// for it.
func (m *EdgeMemo) model(mdl TrustModel) *modelMemo { return m.models[mdl.Name()] }

// hopTables appends to *tabs (a nil tabs only checks) the tables a search of
// t under mdl over view reads — t's own, or one per characteristic for a
// PerCharacteristic model — or wraps ErrNotRequired if one is not built.
func (m *EdgeMemo) hopTables(tabs *[][]float64, view *TrustView, mdl TrustModel, t task.Task) error {
	if m == nil || m.view != view {
		return fmt.Errorf("%w: no memo over the searched view", ErrNotRequired)
	}
	mm, ok := m.model(mdl), true
	use := func(vals []float64) {
		ok = ok && vals != nil
		if tabs != nil {
			*tabs = append(*tabs, vals)
		}
	}
	if !mdl.Spec().PerCharacteristic {
		use(mm.table(t))
	} else {
		for _, c := range t.Characteristics() {
			use(mm.charTable(c))
		}
	}
	if !ok {
		return fmt.Errorf("%w: model %q, task type %d (call EdgeMemo.RequireModel first)", ErrNotRequired, mdl.Name(), t.Type())
	}
	return nil
}

// table returns the hop table built for t — for an EpochTrainable model,
// its trained table — or nil when absent or built for a same-type task with
// different contents.
func (mm *modelMemo) table(t task.Task) []float64 {
	if mm == nil {
		return nil
	}
	if mm.trained != nil {
		return mm.trained
	}
	if tb := mm.tables[t.Type()]; tb.t.Equal(t) {
		return tb.vals
	}
	return nil
}

// charTable returns a PerCharacteristic model's hop table for
// characteristic c, or nil when RequireModel has not built it.
func (mm *modelMemo) charTable(c task.Characteristic) []float64 {
	if mm == nil {
		return nil
	}
	return mm.tables[unitType(c)].vals
}

// RequireLens requires mdl's tables for t (RequireModel) and returns the
// single-edge lens over them: the value a search of t under mdl gives a
// one-hop path across edge e — the layer-weighted sum of e's entries in the
// tables the search reads — or ok=false as soon as one of them blocks the
// hop. Probes that score edges through it see every edge exactly as the
// search does. The lens reads the memo's tables, so it is valid until the
// memo's next Reset or Release.
func (m *EdgeMemo) RequireLens(mdl TrustModel, t task.Task) func(e int32) (float64, bool) {
	m.RequireModel(mdl, []task.Task{t})
	var tabs [][]float64
	_ = m.hopTables(&tabs, m.view, mdl, t) // RequireModel has just built every one
	weights := layerWeights(mdl, t)
	return func(e int32) (float64, bool) {
		tw := 0.0
		for l, vals := range tabs {
			v := vals[e]
			if math.IsNaN(v) {
				return 0, false
			}
			tw += float64(weights[l] * v)
		}
		return tw, true
	}
}
