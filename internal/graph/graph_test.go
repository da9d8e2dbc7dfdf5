package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1)); err != nil {
			panic(err)
		}
	}
	return g
}

// complete returns K_n.
func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(NodeID(i), NodeID(j)); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph has nodes or edges")
	}
	if g.AvgDegree() != 0 || g.AvgClustering() != 0 {
		t.Fatal("empty graph metrics nonzero")
	}
	st := g.Paths()
	if st.Diameter != 0 || st.AvgPathLength != 0 {
		t.Fatal("empty graph path stats nonzero")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	// Duplicate is a no-op.
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge counted: %d", g.NumEdges())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := complete(4)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("existing edge not removed")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present after removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second removal reported true")
	}
	if g.NumEdges() != 5 {
		t.Fatalf("edges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := path(4)
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.Degree(99) != 0 {
		t.Fatal("invalid node degree not 0")
	}
	n := g.Neighbors(1)
	if len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("neighbors of 1 = %v", n)
	}
	if g.Neighbors(99) != nil {
		t.Fatal("invalid node has neighbors")
	}
}

func TestHandshakeLemma(t *testing.T) {
	// Sum of degrees equals 2E on random graphs.
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.IntN(50)
		g := New(n)
		for e := 0; e < 3*n; e++ {
			u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(NodeID(u))
		}
		if sum != 2*g.NumEdges() {
			t.Fatalf("handshake violated: sum=%d 2E=%d", sum, 2*g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	d := g.BFS(0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable nodes have distance %d %d", d[2], d[3])
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	// 5, 6 isolated.
	comps := g.ConnectedComponents()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comps[0]))
	}
}

func TestClusteringComplete(t *testing.T) {
	g := complete(5)
	for u := 0; u < 5; u++ {
		if c := g.ClusteringCoefficient(NodeID(u)); c != 1 {
			t.Fatalf("K5 clustering(%d) = %v, want 1", u, c)
		}
	}
	if g.AvgClustering() != 1 {
		t.Fatal("K5 average clustering != 1")
	}
}

func TestClusteringPath(t *testing.T) {
	g := path(5)
	if g.AvgClustering() != 0 {
		t.Fatal("path graph clustering != 0")
	}
	if g.ClusteringCoefficient(0) != 0 {
		t.Fatal("degree-1 node clustering != 0")
	}
}

func TestClusteringTriangleWithTail(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(2, 3)
	// Node 2 has neighbors {0,1,3}; only pair (0,1) connected: C = 1/3.
	if c := g.ClusteringCoefficient(2); c < 0.333 || c > 0.334 {
		t.Fatalf("clustering = %v, want 1/3", c)
	}
}

func TestPathsOnPathGraph(t *testing.T) {
	g := path(4)
	st := g.Paths()
	if st.Diameter != 3 {
		t.Fatalf("diameter = %d, want 3", st.Diameter)
	}
	// Ordered pairs distances: sum over pairs = 2*(1+2+3 + 1+2 + 1) = 20; pairs = 12.
	want := 20.0 / 12.0
	if st.AvgPathLength < want-1e-9 || st.AvgPathLength > want+1e-9 {
		t.Fatalf("APL = %v, want %v", st.AvgPathLength, want)
	}
}

func TestPathsComplete(t *testing.T) {
	st := complete(6).Paths()
	if st.Diameter != 1 || st.AvgPathLength != 1 {
		t.Fatalf("K6 paths = %+v", st)
	}
}

func TestEdgeList(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(1, 2)
	el := g.EdgeList()
	if len(el) != 2 {
		t.Fatalf("edge list %v", el)
	}
	for _, e := range el {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonical", e)
		}
	}
}

func TestQuickClusteringBounds(t *testing.T) {
	// Local clustering is always within [0,1] on arbitrary random graphs.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rand.New(rand.NewPCG(seed, 7))
		g := New(n)
		for e := 0; e < 4*n; e++ {
			u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		for u := 0; u < n; u++ {
			c := g.ClusteringCoefficient(NodeID(u))
			if c < 0 || c > 1 {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickBFSTriangleInequality(t *testing.T) {
	// d(s,v) <= d(s,u) + 1 for every edge (u,v).
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 30
		g := New(n)
		for e := 0; e < 60; e++ {
			u, v := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		d := g.BFS(0)
		for _, e := range g.EdgeList() {
			du, dv := d[e[0]], d[e[1]]
			if du >= 0 && dv >= 0 {
				diff := du - dv
				if diff < -1 || diff > 1 {
					return false
				}
			}
			if (du < 0) != (dv < 0) {
				return false // adjacent nodes must be in the same component
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
