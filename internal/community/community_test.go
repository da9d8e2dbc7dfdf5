package community

import (
	"testing"
	"testing/quick"

	"siot/internal/graph"
	"siot/internal/rng"
)

// twoCliques returns two k-cliques joined by a single bridge edge.
func twoCliques(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			_ = g.AddEdge(graph.NodeID(i), graph.NodeID(j))
			_ = g.AddEdge(graph.NodeID(k+i), graph.NodeID(k+j))
		}
	}
	_ = g.AddEdge(0, graph.NodeID(k))
	return g
}

func TestModularitySingleCommunity(t *testing.T) {
	g := twoCliques(5)
	p := Partition{Assign: make([]int, g.NumNodes()), NumCommunities: 1}
	if q := modularity(g, p); q > 1e-12 || q < -1e-12 {
		t.Fatalf("single-community modularity = %v, want 0", q)
	}
}

func TestModularityPlantedSplit(t *testing.T) {
	g := twoCliques(6)
	assign := make([]int, g.NumNodes())
	for i := 6; i < 12; i++ {
		assign[i] = 1
	}
	p := Partition{Assign: assign, NumCommunities: 2}
	q := modularity(g, p)
	if q < 0.4 {
		t.Fatalf("planted split modularity = %v, want > 0.4", q)
	}
	// A bad split (odd/even interleave) must be worse.
	bad := make([]int, g.NumNodes())
	for i := range bad {
		bad[i] = i % 2
	}
	if qb := modularity(g, Partition{Assign: bad, NumCommunities: 2}); qb >= q {
		t.Fatalf("interleaved split %v not worse than planted %v", qb, q)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := graph.New(4)
	p := Partition{Assign: make([]int, 4), NumCommunities: 1}
	if q := modularity(g, p); q != 0 {
		t.Fatalf("edgeless modularity = %v", q)
	}
}

func TestModularityMismatchedPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched partition size")
		}
	}()
	g := twoCliques(3)
	modularity(g, Partition{Assign: []int{0, 1}, NumCommunities: 2})
}

func TestLouvainFindsCliques(t *testing.T) {
	g := twoCliques(8)
	p, q := Detect(g, 1)
	if p.NumCommunities != 2 {
		t.Fatalf("communities = %d, want 2", p.NumCommunities)
	}
	// All clique members together.
	for i := 1; i < 8; i++ {
		if p.Assign[i] != p.Assign[0] {
			t.Fatalf("clique 1 split: %v", p.Assign)
		}
		if p.Assign[8+i] != p.Assign[8] {
			t.Fatalf("clique 2 split: %v", p.Assign)
		}
	}
	if p.Assign[0] == p.Assign[8] {
		t.Fatal("cliques merged")
	}
	if q < 0.4 {
		t.Fatalf("modularity = %v, want > 0.4", q)
	}
}

func TestLouvainDeterministic(t *testing.T) {
	g := twoCliques(6)
	a := louvain(g, 42)
	b := louvain(g, 42)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic at node %d", i)
		}
	}
}

func TestLouvainRingOfCliques(t *testing.T) {
	// Classic benchmark: a ring of k cliques, each clique one community.
	const k, size = 6, 5
	g := graph.New(k * size)
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				_ = g.AddEdge(graph.NodeID(base+i), graph.NodeID(base+j))
			}
		}
		next := ((c + 1) % k) * size
		_ = g.AddEdge(graph.NodeID(base), graph.NodeID(next+1))
	}
	p, q := Detect(g, 7)
	if p.NumCommunities != k {
		t.Fatalf("communities = %d, want %d", p.NumCommunities, k)
	}
	if q < 0.6 {
		t.Fatalf("modularity = %v, want > 0.6", q)
	}
}

func TestLouvainIsolatedNodes(t *testing.T) {
	g := graph.New(5)
	_ = g.AddEdge(0, 1)
	p := louvain(g, 3)
	if len(p.Assign) != 5 {
		t.Fatalf("assign length %d", len(p.Assign))
	}
	if p.Assign[0] != p.Assign[1] {
		t.Fatal("connected pair not in same community")
	}
}

func TestCommunitiesRoundTrip(t *testing.T) {
	g := twoCliques(4)
	p := louvain(g, 5)
	total := 0
	for _, c := range p.Communities() {
		total += len(c)
	}
	if total != g.NumNodes() {
		t.Fatalf("communities cover %d of %d nodes", total, g.NumNodes())
	}
}

func TestQuickModularityBounds(t *testing.T) {
	// For any graph and any partition, Q ∈ [-1, 1] (tighter bounds exist but
	// this is the invariant worth guarding).
	f := func(seed uint64, nRaw, cRaw uint8) bool {
		n := int(nRaw%30) + 2
		nc := int(cRaw%uint8(n)) + 1
		r := rng.New(seed, "qmod")
		g := graph.New(n)
		for e := 0; e < 3*n; e++ {
			u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = r.IntN(nc)
		}
		p := Partition{Assign: assign}
		p.normalize()
		q := modularity(g, p)
		return q >= -1 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickLouvainBeatsSingleton(t *testing.T) {
	// Louvain's result must never have lower modularity than the all-in-one
	// partition (Q=0) on graphs with at least one edge.
	f := func(seed uint64) bool {
		r := rng.New(seed, "qlouvain")
		n := 20
		g := graph.New(n)
		for e := 0; e < 40; e++ {
			u, v := graph.NodeID(r.IntN(n)), graph.NodeID(r.IntN(n))
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
		if g.NumEdges() == 0 {
			return true
		}
		_, q := Detect(g, seed)
		return q >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
