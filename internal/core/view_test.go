package core

import (
	"math"
	"slices"
	"testing"

	"siot/internal/task"
)

// captureTrustView captures src over the CSR adjacency without a pool and
// returns the record half of the round view.
func captureTrustView(t testing.TB, adjOff []int32, adjTo []AgentID, src RoundSource, workers int) *TrustView {
	t.Helper()
	v, err := CaptureRoundView(adjOff, adjTo, src, UnitNormalizer(), workers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v.TrustView
}

// tinyView builds a 3-agent path graph 0—1—2 where agent 0 holds one record
// about agent 1 for the given task.
func tinyView(t *testing.T, tk task.Task) *TrustView {
	t.Helper()
	adjOff := []int32{0, 1, 3, 4}
	adjTo := []AgentID{1, 0, 2, 1}
	cat := task.NewCatalog()
	store := map[[2]AgentID][]CompactRecord{
		{0, 1}: {{Ref: cat.Intern(tk), Exp: Expectation{S: 0.9, G: 0.9, D: 0.1}, Count: 1}},
	}
	return captureTrustView(t, adjOff, adjTo, RoundSource{
		Catalog: cat,
		Count: func(holder, about AgentID) int {
			return len(store[[2]AgentID{holder, about}])
		},
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			return append(buf, store[[2]AgentID{holder, about}]...)
		},
		Version: func(AgentID) uint64 { return 0 },
		Usage:   func(_, _ AgentID) UsageLog { return UsageLog{} },
	}, 1)
}

// TestEdgeMemoConservativeTaskGuard: the conservative table is only valid
// for the exact task it was built from. A same-type task with different
// characteristics must not be served a stale table (table returns nil and
// the search falls back to per-edge evaluation), and RequireModel for the
// new task must rebuild the table.
func TestEdgeMemoConservativeTaskGuard(t *testing.T) {
	taskA := task.Uniform(3, task.CharGPS)
	taskB := task.Uniform(3, task.CharImage) // same type, different bag
	view := tinyView(t, taskA)
	memo := NewEdgeMemoPooled(view, UnitNormalizer(), 1, nil)
	cons := Conservative

	memo.RequireModel(cons, []task.Task{taskA})
	if memo.model(cons).table(taskA) == nil {
		t.Fatal("table for the required task missing")
	}
	if got := memo.model(cons).table(taskB); got != nil {
		t.Fatalf("same-type different-content task served a stale table: %v", got)
	}

	memo.RequireModel(cons, []task.Task{taskB})
	vals := memo.model(cons).table(taskB)
	if vals == nil {
		t.Fatal("table not rebuilt for the new task contents")
	}
	// The rebuilt table must block edge (0,1): the record covers GPS, not
	// Image.
	if _, ok := inferFromCompact(view.Tasks(), view.EdgeRecords(0), taskB, UnitNormalizer()); ok {
		t.Fatal("fixture broken: taskB should not be inferable from a GPS record")
	}
	if !isBlocked(vals[0]) {
		t.Fatalf("edge (0,1) should be blocked for taskB, got %v", vals[0])
	}
}

func isBlocked(v float64) bool { return v != v }

// TestEdgeMemoLastSameTypeTaskWins: RequireModel builds all its tables in
// one pass, and when one call names several same-type tasks the table ends
// up built for the last of them, as if each task had been required in turn.
func TestEdgeMemoLastSameTypeTaskWins(t *testing.T) {
	taskA := task.Uniform(3, task.CharGPS)
	taskB := task.Uniform(3, task.CharImage)
	view := tinyView(t, taskA)
	memo := NewEdgeMemoPooled(view, UnitNormalizer(), 1, nil)
	cons := Conservative

	memo.RequireModel(cons, []task.Task{taskA, taskB})
	if memo.model(cons).table(taskB) == nil || memo.model(cons).table(taskA) != nil {
		t.Fatal("[A, B] must leave the table built for B")
	}
	memo.RequireModel(cons, []task.Task{taskA})
	memo.RequireModel(cons, []task.Task{taskB, taskA})
	vals := memo.model(cons).table(taskA)
	if vals == nil || memo.model(cons).table(taskB) != nil {
		t.Fatal("[B, A] over a table built for A must leave it built for A")
	}
	want, _ := inferFromCompact(view.Tasks(), view.EdgeRecords(0), taskA, UnitNormalizer())
	if vals[0] != want {
		t.Fatalf("edge (0,1) value = %v, want %v", vals[0], want)
	}
}

// TestEdgeMemoTraditionalTypeKey: the traditional hop depends on the task
// only through its type, so the table rebuilt for a same-type task with
// different contents holds exactly the values of the first.
func TestEdgeMemoTraditionalTypeKey(t *testing.T) {
	taskA := task.Uniform(3, task.CharGPS)
	taskB := task.Uniform(3, task.CharImage)
	view := tinyView(t, taskA)
	memo := NewEdgeMemoPooled(view, UnitNormalizer(), 1, nil)
	trad := Traditional
	memo.RequireModel(trad, []task.Task{taskA})
	first := slices.Clone(memo.model(trad).table(taskA))
	memo.RequireModel(trad, []task.Task{taskB})
	got := memo.model(trad).table(taskB)
	if got == nil {
		t.Fatal("traditional table missing for the same-type task")
	}
	for e := range got {
		if math.Float64bits(got[e]) != math.Float64bits(first[e]) {
			t.Fatalf("edge %d: traditional value %v for taskB, %v for taskA", e, got[e], first[e])
		}
	}
	want := (Record{Task: taskA, Exp: Expectation{S: 0.9, G: 0.9, D: 0.1}}).TW(UnitNormalizer())
	if got[0] != want {
		t.Fatalf("edge (0,1) traditional value = %v, want %v", got[0], want)
	}
}

// TestEdgeMemoCharacteristicKey: a per-characteristic model's tables are
// keyed by characteristic and shared by every task containing it —
// requiring a second task over an already covered characteristic reuses the
// table instead of rebuilding it, and each value is the characteristic's
// weighted average over the edge's records.
func TestEdgeMemoCharacteristicKey(t *testing.T) {
	rec := task.Uniform(1, task.CharGPS, task.CharImage)
	view := tinyView(t, rec)
	memo := NewEdgeMemoPooled(view, UnitNormalizer(), 1, nil)
	agg := Aggressive
	memo.RequireModel(agg, []task.Task{task.Uniform(3, task.CharGPS, task.CharImage)})
	gps := memo.model(agg).charTable(task.CharGPS)
	if gps == nil || memo.model(agg).charTable(task.CharImage) == nil {
		t.Fatal("per-characteristic tables missing")
	}
	memo.RequireModel(agg, []task.Task{task.Uniform(4, task.CharGPS)})
	if again := memo.model(agg).charTable(task.CharGPS); &again[0] != &gps[0] {
		t.Fatal("covered characteristic's table was rebuilt")
	}
	want, _ := charTWCompact(view.Tasks(), view.EdgeRecords(0), task.CharGPS, UnitNormalizer())
	if gps[0] != want {
		t.Fatalf("edge (0,1) GPS value = %v, want %v", gps[0], want)
	}
	if !isBlocked(gps[1]) {
		t.Fatalf("edge (1,0) holds no records, got %v", gps[1])
	}
}
