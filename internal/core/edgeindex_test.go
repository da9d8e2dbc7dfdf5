package core

import (
	"testing"

	"siot/internal/task"
)

// edgeIndexView builds a TrustView over an explicit CSR adjacency with no
// records — EdgeIndex only reads the adjacency, so an empty capture source
// suffices.
func edgeIndexView(t *testing.T, adjOff []int32, adjTo []AgentID) *TrustView {
	t.Helper()
	return captureTrustView(t, adjOff, adjTo, RoundSource{
		Catalog: task.NewCatalog(),
		Count:   func(holder, about AgentID) int { return 0 },
		Append: func(holder, about AgentID, buf []CompactRecord) []CompactRecord {
			return buf
		},
		Version: func(AgentID) uint64 { return 0 },
		Usage:   func(_, _ AgentID) UsageLog { return UsageLog{} },
	}, 1)
}

// TestEdgeIndexRowBoundaries: the binary search behind the serve path must
// hit the first and last edge of a row exactly and miss targets just outside
// the row's range — the off-by-one class a row-local search can get wrong.
func TestEdgeIndexRowBoundaries(t *testing.T) {
	// Agent 1 has neighbors {0, 3, 5, 9}; agents 0 and 2 have one each.
	adjOff := []int32{0, 1, 5, 6}
	adjTo := []AgentID{1, 0, 3, 5, 9, 1}
	v := edgeIndexView(t, adjOff, adjTo)

	if e, ok := v.EdgeIndex(1, 0); !ok || e != 1 {
		t.Fatalf("first edge of row: EdgeIndex(1, 0) = (%d, %v), want (1, true)", e, ok)
	}
	if e, ok := v.EdgeIndex(1, 9); !ok || e != 4 {
		t.Fatalf("last edge of row: EdgeIndex(1, 9) = (%d, %v), want (4, true)", e, ok)
	}
	if e, ok := v.EdgeIndex(1, 5); !ok || e != 3 {
		t.Fatalf("middle edge: EdgeIndex(1, 5) = (%d, %v), want (3, true)", e, ok)
	}
	// Absent targets: below the row's first, between entries, above the last.
	// A miss must not bleed into a neighboring row's edges.
	for _, w := range []AgentID{2, 4, 6, 10} {
		if e, ok := v.EdgeIndex(1, w); ok {
			t.Fatalf("EdgeIndex(1, %d) = (%d, true), want a miss", w, e)
		}
	}
	// Row of size one: its single edge is both first and last.
	if e, ok := v.EdgeIndex(2, 1); !ok || e != 5 {
		t.Fatalf("singleton row: EdgeIndex(2, 1) = (%d, %v), want (5, true)", e, ok)
	}
	if _, ok := v.EdgeIndex(2, 0); ok {
		t.Fatal("singleton row: EdgeIndex(2, 0) hit, want a miss")
	}
}

// TestEdgeIndexEmptyRow: an isolated agent's row is the empty span — every
// lookup must miss without touching adjacent rows.
func TestEdgeIndexEmptyRow(t *testing.T) {
	// Agent 1 is isolated; 0 and 2 are mutual neighbors.
	adjOff := []int32{0, 1, 1, 2}
	adjTo := []AgentID{2, 0}
	v := edgeIndexView(t, adjOff, adjTo)
	for w := AgentID(0); w < 3; w++ {
		if e, ok := v.EdgeIndex(1, w); ok {
			t.Fatalf("isolated agent: EdgeIndex(1, %d) = (%d, true), want a miss", w, e)
		}
	}
	if e, ok := v.EdgeIndex(0, 2); !ok || e != 0 {
		t.Fatalf("EdgeIndex(0, 2) = (%d, %v), want (0, true)", e, ok)
	}
}

// TestEdgeIndexSingleNodeGraph: a one-node graph has one empty row and no
// edges; any lookup (including the self-loop) must miss.
func TestEdgeIndexSingleNodeGraph(t *testing.T) {
	v := edgeIndexView(t, []int32{0, 0}, nil)
	if v.NumAgents() != 1 || v.NumEdges() != 0 {
		t.Fatalf("view shape %d agents/%d edges, want 1/0", v.NumAgents(), v.NumEdges())
	}
	if e, ok := v.EdgeIndex(0, 0); ok {
		t.Fatalf("EdgeIndex(0, 0) = (%d, true) on a single-node graph, want a miss", e)
	}
}
