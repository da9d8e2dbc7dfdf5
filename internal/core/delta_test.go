package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"siot/internal/task"
)

// deltaMutation is one randomized ingest step between epochs: the rows it
// may write and what it writes.
type deltaMutation struct {
	name string
	rows func(r *rand.Rand, n int) []int
}

var deltaMutations = []deltaMutation{
	{"none", func(*rand.Rand, int) []int { return nil }},
	{"one", func(r *rand.Rand, n int) []int { return []int{r.IntN(n)} }},
	{"some", func(r *rand.Rand, n int) []int {
		rows := make([]int, 1+r.IntN(n/10))
		for i := range rows {
			rows[i] = r.IntN(n)
		}
		return rows
	}},
	{"all", func(_ *rand.Rand, n int) []int {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}},
}

// mutateRow applies one random event to the store of row u, drawing its
// counterpart among u's neighbors: an observation (records of u, usage of
// the neighbor's store), a recommendation (a seeded record, sometimes of a
// task type the catalog has not seen), a bare usage log, or a Forget.
// It returns the rows whose store the event wrote.
func (f *roundFixture) mutateRow(r *rand.Rand, u int, fresh *[]task.Task) []int {
	nbrs := f.adjTo[f.adjOff[u]:f.adjOff[u+1]]
	if len(nbrs) == 0 {
		f.stores[u].ObserveUsage(AgentID((u+1)%f.n), r.IntN(2) == 0)
		return []int{u}
	}
	w := nbrs[r.IntN(len(nbrs))]
	tk := f.tasks[r.IntN(len(f.tasks))]
	switch r.IntN(4) {
	case 0:
		f.stores[u].Observe(w, tk, Outcome{Success: r.IntN(2) == 0, Gain: r.Float64(), Damage: r.Float64(), Cost: 0.1 * r.Float64()}, PerfectEnv())
		f.stores[w].ObserveUsage(AgentID(u), r.IntN(3) == 0)
		return []int{u, int(w)}
	case 1:
		if r.IntN(8) == 0 {
			// A task type new to the catalog: refs only grow, so every
			// clean row's refs still resolve in the new snapshot.
			tk = task.Uniform(task.Type(100+len(*fresh)), task.CharAudio, task.Characteristic(r.IntN(3)))
			*fresh = append(*fresh, tk)
		}
		s := r.Float64()
		f.stores[u].Seed(w, tk, Expectation{S: s, G: s, D: 1 - s, C: 0.1 * r.Float64()})
	case 2:
		f.stores[u].ObserveUsage(w, r.IntN(2) == 0)
	default:
		f.stores[u].Forget(w)
	}
	return []int{u}
}

// countingModel wraps a model and counts its HopTW evaluations, so a test
// can see which edges a memo build evaluated rather than copied.
type countingModel struct {
	TrustModel
	calls *atomic.Int64
}

func (c countingModel) Name() string { return "counting-" + c.TrustModel.Name() }

func (c countingModel) HopTW(ctx HopContext, recs []CompactRecord, t task.Task) (float64, bool) {
	c.calls.Add(1)
	return c.TrustModel.HopTW(ctx, recs, t)
}

// assertSameRoundView fails unless got and want hold the same bytes in every
// captured array.
func assertSameRoundView(t *testing.T, label string, got, want *RoundView) {
	t.Helper()
	for _, c := range []struct {
		name string
		eq   bool
	}{
		{"recOff", slices.Equal(got.recOff, want.recOff)},
		{"recs", slices.Equal(got.recs, want.recs)},
		{"resp", slices.Equal(got.resp, want.resp)},
		{"abus", slices.Equal(got.abus, want.abus)},
		{"stamps", slices.Equal(got.stamps, want.stamps)},
	} {
		if !c.eq {
			t.Fatalf("%s: delta capture differs from a fresh capture in %s", label, c.name)
		}
	}
}

// assertSameMemo fails unless every table of mdl in got — its trained
// table, for an EpochTrainable model — has the bits of the same table in
// want.
func assertSameMemo(t *testing.T, label string, mdl TrustModel, got, want *EdgeMemo) {
	t.Helper()
	gm, wm := got.model(mdl), want.model(mdl)
	if len(gm.tables) != len(wm.tables) || len(gm.tables) == 0 && wm.trained == nil {
		t.Fatalf("%s/%s: %d tables, fresh memo has %d", label, mdl.Name(), len(gm.tables), len(wm.tables))
	}
	sameBits := func(typ task.Type, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s/%s: table %d has %d edges, fresh memo has %d", label, mdl.Name(), typ, len(g), len(w))
		}
		for e := range w {
			if math.Float64bits(g[e]) != math.Float64bits(w[e]) {
				t.Fatalf("%s/%s: table %d edge %d = %v, fresh memo has %v", label, mdl.Name(), typ, e, g[e], w[e])
			}
		}
	}
	sameBits(0, gm.trained, wm.trained)
	for typ, wt := range wm.tables {
		gt, ok := gm.tables[typ]
		if !ok || !gt.t.Equal(wt.t) {
			t.Fatalf("%s/%s: table for type %d missing or built for another task", label, mdl.Name(), typ)
		}
		sameBits(typ, gt.vals, wt.vals)
	}
}

// TestDeltaCaptureMatchesFresh chains predecessor-built epochs under
// randomized ingest — observations, recommendations (some of new task
// types), usage logs and Forgets on no row, one row, some rows or every
// row — and pins each against a from-scratch capture: the round view
// byte for byte, and every memo table of every registered model bit for
// bit, at several worker counts, with pooled arenas whose stale contents
// must be fully overwritten — for a memo built from its predecessor and
// for one memo carried across the epochs by Reset alike. It also pins that
// reuse happens: the capture rereads exactly the written rows, and a memo
// build evaluates exactly the edges of those rows.
func TestDeltaCaptureMatchesFresh(t *testing.T) {
	const epochs = 8
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(workers), 0xde17a))
			f := newRoundFixture(r, 400, 6000)
			if ne := len(f.adjTo); ne < 1024*workers {
				t.Fatalf("fixture has %d edges, too few to run %d capture workers", ne, workers)
			}
			var models []TrustModel
			for _, name := range ModelNames() {
				m, err := ParseModel(name)
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
			calls := new(atomic.Int64)
			counter := countingModel{Conservative, calls}
			models = append(models, counter)

			pool := NewArenaPool()
			norm := UnitNormalizer()
			capture := func(prev *RoundView) *RoundView {
				v, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), norm, workers, pool, prev)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			var fresh []task.Task
			prev := capture(nil)
			prevMemo := NewEdgeMemoPooled(prev.TrustView, norm, workers, pool)
			// resetMemo is one memo carried from epoch to epoch by Reset,
			// refreshing its tables in place.
			resetMemo := NewEdgeMemoPooled(prev.TrustView, norm, workers, pool)
			for _, m := range models {
				prevMemo.RequireModel(m, f.tasks)
				resetMemo.RequireModel(m, f.tasks)
			}
			for ep := 1; ep <= epochs; ep++ {
				mut := deltaMutations[r.IntN(len(deltaMutations))]
				if ep <= len(deltaMutations) {
					mut = deltaMutations[ep-1] // every kind at least once
				}
				written := map[int]bool{}
				for _, u := range mut.rows(r, f.n) {
					for _, w := range f.mutateRow(r, u, &fresh) {
						written[w] = true
					}
				}
				tasks := append(slices.Clone(f.tasks), fresh...)
				label := fmt.Sprintf("epoch %d (%s, %d rows written)", ep, mut.name, len(written))

				delta := capture(prev)
				want := capture(nil)
				assertSameRoundView(t, label, delta, want)
				if delta.RowsRecaptured() != len(written) {
					t.Fatalf("%s: capture recaptured %d rows, want %d", label, delta.RowsRecaptured(), len(written))
				}
				if !delta.Current(f.source()) || len(written) > 0 && prev.Current(f.source()) {
					t.Fatalf("%s: Current = %v for the new epoch and %v for its predecessor", label, delta.Current(f.source()), prev.Current(f.source()))
				}
				if want.RowsRecaptured() != f.n {
					t.Fatalf("%s: full capture recaptured %d rows, want all %d", label, want.RowsRecaptured(), f.n)
				}

				dirtyEdges := 0
				for u := range written {
					dirtyEdges += int(f.adjOff[u+1] - f.adjOff[u])
				}
				deltaMemo := NewEdgeMemoPooled(delta.TrustView, norm, workers, pool)
				freshMemo := NewEdgeMemoPooled(want.TrustView, norm, workers, pool)
				// Reset refreshes resetMemo's tables at once: the hops it
				// evaluates count toward the Reset+RequireModel path.
				before := calls.Load()
				resetMemo.Reset(delta.TrustView)
				resetCalls := calls.Load() - before
				for _, m := range models {
					// Tables for task types prev lacked build in full.
					reused, rebuilt := 0, 0
					for _, tk := range tasks {
						if prevMemo.model(m).table(tk) != nil {
							reused++
						} else {
							rebuilt++
						}
					}
					wantCalls := int64(reused*dirtyEdges + rebuilt*len(f.adjTo))
					for _, path := range []struct {
						name    string
						earlier int64 // hops evaluated for this path before require
						require func()
					}{
						{"RequireModelFrom", 0, func() { deltaMemo.RequireModelFrom(prevMemo, m, tasks) }},
						{"Reset+RequireModel", resetCalls, func() { resetMemo.RequireModel(m, tasks) }},
					} {
						before := calls.Load()
						path.require()
						if got := path.earlier + calls.Load() - before; m == TrustModel(counter) && got != wantCalls {
							t.Fatalf("%s: %s evaluated %d hops, want %d (%d reused tables over %d dirty edges, %d rebuilt)",
								label, path.name, got, wantCalls, reused, dirtyEdges, rebuilt)
						}
					}
					freshMemo.RequireModel(m, tasks)
					assertSameMemo(t, label, m, deltaMemo, freshMemo)
					assertSameMemo(t, label+" after Reset", m, resetMemo, freshMemo)
				}
				freshMemo.Release()
				want.Release()
				prevMemo.Release()
				prev.Release()
				prev, prevMemo = delta, deltaMemo
			}
			resetMemo.Release()
			prevMemo.Release()
			prev.Release()
		})
	}
}

// TestDeltaCaptureIgnoresForeignPredecessor: a predecessor over another
// adjacency, or a released one, lends nothing — the capture reads every
// row, still byte-identical.
func TestDeltaCaptureIgnoresForeignPredecessor(t *testing.T) {
	f := buildRoundFixture(t, 12)
	g := buildRoundFixture(t, 13)
	norm := UnitNormalizer()
	foreign, err := CaptureRoundView(g.adjOff, g.adjTo, g.source(), norm, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	released, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), norm, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	released.Release()
	want, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), norm, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, prev := range map[string]*RoundView{"foreign": foreign, "released": released} {
		got, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), norm, 1, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowsRecaptured() != f.n {
			t.Fatalf("%s predecessor: recaptured %d rows, want all %d", name, got.RowsRecaptured(), f.n)
		}
		assertSameRoundView(t, name, got, want)
	}
}

// TestDeltaCaptureUnpooled: without an arena pool, a capture that copies
// from its predecessor after one write rereads that one row, equals a fresh
// capture byte for byte, and answers the written edge as the live store
// does while the predecessor still shows the old value.
func TestDeltaCaptureUnpooled(t *testing.T) {
	f := buildRoundFixture(t, 14)
	capture := func(prev *RoundView) *RoundView {
		t.Helper()
		v, err := CaptureRoundView(f.adjOff, f.adjTo, f.source(), UnitNormalizer(), 2, nil, prev)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	prev := capture(nil)
	u := 0
	for f.adjOff[u] == f.adjOff[u+1] {
		u++
	}
	w, tk := f.adjTo[f.adjOff[u]], f.tasks[1]
	f.stores[u].Observe(w, tk, Outcome{Damage: 0.7, Cost: 0.2}, PerfectEnv())
	delta := capture(prev)
	fresh := capture(nil)
	if got := delta.RowsRecaptured(); got != 1 {
		t.Fatalf("capture after one write reread %d rows, want 1", got)
	}
	assertSameRoundView(t, "unpooled", delta, fresh)
	e, _ := delta.EdgeIndex(AgentID(u), w)
	got, gotOK := delta.BestTW(e, tk)
	want, wantOK := f.stores[u].BestTW(w, tk)
	if got != want || gotOK != wantOK {
		t.Fatalf("BestTW(%d->%d) = (%v, %v), store says (%v, %v)", u, w, got, gotOK, want, wantOK)
	}
	if old, _ := prev.BestTW(e, tk); old == got {
		t.Fatal("the write did not reach the capture")
	}
}
