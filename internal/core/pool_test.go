package core

import (
	"testing"

	"siot/internal/task"
)

// TestArenaPoolRecordShelfBounded captures epochs whose record count grows
// by varying amounts over one pool. Whether a capture fits a shelved
// arena's spare capacity or misses it, the record shelf never holds more
// than one arena.
func TestArenaPoolRecordShelfBounded(t *testing.T) {
	f := buildRoundFixture(t, 12)
	pool := NewArenaPool()
	u := 0
	for f.adjOff[u] == f.adjOff[u+1] {
		u++
	}
	w := f.adjTo[f.adjOff[u]]
	typ := task.Type(100)
	for k := 0; k < 12; k++ {
		for i := 0; i < 1<<(k%6); i++ {
			f.stores[u].Observe(w, task.Uniform(typ, task.CharGPS), Outcome{Success: true, Gain: 1}, PerfectEnv())
			typ++
		}
		mustRoundView(t, f, 2, pool).Release()
		if n := len(pool.recs.items); n > 1 {
			t.Fatalf("epoch %d: record shelf holds %d arenas, want at most 1", k, n)
		}
	}
}

// TestArenaPoolKeepsMemoTables releases a memo holding more hop tables than
// the other shelves keep. The pool keeps every table, and a second memo over
// the same view takes them all back instead of allocating.
func TestArenaPoolKeepsMemoTables(t *testing.T) {
	f := buildRoundFixture(t, 5)
	pool := NewArenaPool()
	view := mustRoundView(t, f, 1, pool)
	defer view.Release()
	var tasks []task.Task
	for i := 0; i < 2*arenaShelfSize; i++ {
		tasks = append(tasks, task.Uniform(task.Type(10+i), task.CharGPS))
	}
	first := NewEdgeMemoPooled(view.TrustView, UnitNormalizer(), 1, pool)
	first.RequireModel(Conservative, tasks)
	first.Release()
	if n := len(pool.tables.items); n != len(tasks) {
		t.Fatalf("table shelf holds %d of the memo's %d tables", n, len(tasks))
	}
	second := NewEdgeMemoPooled(view.TrustView, UnitNormalizer(), 1, pool)
	second.RequireModel(Conservative, tasks)
	defer second.Release()
	if n := len(pool.tables.items); n != 0 {
		t.Fatalf("second memo left %d shelved tables unused", n)
	}
}
